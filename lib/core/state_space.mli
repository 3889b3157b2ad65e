(** The reachable routing states of an algorithm on a network.

    A state is a pair (buffer, destination): "some packet destined for
    [dest] occupies [buf]".  States are seeded at the injection buffers and
    closed under the routing relation; everything downstream — the buffer
    waiting graph, wait-connectivity, cycle classification, the baseline
    proof techniques and the adaptiveness counters — works on this state
    space, which is what keeps the analysis exact: dependencies that no
    packet can actually create (because the state is unreachable) never
    enter the BWG. *)

open Dfr_network
open Dfr_routing

type t

val build : ?domains:int -> Net.t -> Algo.t -> t
(** Raises [Invalid_argument] when {!Algo.state_problems} finds a problem
    at a reachable state.  The BFS checks every state it routes, so only
    reachable states are validated: a relation malformed on unreachable
    states alone builds.  The message is ["State_space.build: "] and the
    problems joined by ["; "] in (buffer, destination) order — exactly
    what {!Algo.validate} reports for those states.  A routing or waiting
    function that raises on a reachable state propagates its exception.

    The table is stored as one slice per destination holding just that
    destination's reachable states as flat rows, its move graph and its
    stuck and wait-less states, so its size is O(states + moves), not
    O(buffers * nodes) — what lets 10^4-10^5-buffer instances fit in
    memory, and what makes a destination's states and moves a field read
    ({!dest_view}).

    [domains] fans the reachability BFS out over the shared
    {!Dfr_util.Domain_pool}, partitioned by destination (a destination's
    states never depend on another's).  The resulting table — and the
    error message on a rejected relation — is identical to the serial
    build's. *)

val net : t -> Net.t
val algo : t -> Algo.t
val num_buffers : t -> int
val num_nodes : t -> int

val is_reachable : t -> buf:int -> dest:int -> bool

val index : t -> buf:int -> dest:int -> int
(** The position of state (buf, dest) in its destination's {!dest_view}
    arrays, or [-1] when the state is unreachable.  O(log k). *)

val arrived : t -> buf:int -> dest:int -> bool
(** The head of a packet in this state is at its destination. *)

val num_states : t -> int
(** The number of reachable states, the sum of the slices' sizes. *)

val iter_reachable : t -> (buf:int -> dest:int -> unit) -> unit
(** Every reachable state, buffers ascending and, within a buffer,
    destinations ascending — ascending [buf * num_nodes + dest], the
    order every state list downstream is reported in.  One counting pass
    over the slices, O(states + buffers). *)

(** {2 Incremental access}

    The state table decomposes by destination — a destination's slice is a
    pure function of (net, algo restricted to that destination) — which is
    the sharing unit of the incremental re-checker. *)

type rows = { first : int array; items : int array }
(** Rows over a slice's positions: row [i] is [items.(first.(i))] ..
    [items.(first.(i + 1) - 1)]. *)

val row : rows -> int -> int list
(** Row [i] as a list, for a caller that wants one (it allocates). *)

type dest_view = {
  view_bufs : int array;  (** reachable buffers, ascending *)
  view_outs : rows;
      (** parallel: each state's permitted transit outputs as local ids
          (positions in [view_bufs]), in route order; empty for an
          arrived state *)
  view_wts : rows;
      (** parallel: each state's waiting buffers (buffer ids, since a
          wait need not be a transit buffer), in rule order *)
  view_hint : rows option;
      (** parallel: the algorithm's BWG' hint (buffer ids), when it
          carries one *)
  view_moves : Dfr_graph.Csr.t;
      (** the destination's move graph over local ids: vertex [i] is
          [view_bufs.(i)], and [i -> j] is an edge when [j] is in row [i]
          of [view_outs].  Rows are ascending and duplicate-free; when
          every output row already ascends, this graph shares
          [view_outs]' arrays, so one copy exists.  Local ids renumber
          the reachable buffers monotonically and an unreachable buffer
          has no moves, so a traversal taking roots and successors in
          ascending order visits the same buffers in the same order on
          local ids as on buffer ids.  Map a buffer to its id with
          {!index}. *)
  view_stuck : int array;
      (** the buffers (ascending) of the states the BFS found stuck: not
          arrived, no transit output *)
  view_waitless : int array;
      (** the buffers (ascending) of the states the BFS found wait-less:
          not arrived, no waiting buffer *)
}
(** One destination's slice.  The BFS writes every field in one pass:
    each state's rows as it routes the state (once when the waiting rule
    is the route), and the stuck and wait-less records beside them, so no
    later pass walks the states again for those facts. *)

val dest_view : t -> dest:int -> dest_view
(** One destination's reachable states, routing relation, move graph and
    recorded facts, in O(1): the slice itself (do not mutate).  The
    per-destination BFS builds it whole, so every destination's slice
    exists once [build] returns and reading it from several domains at
    once is safe. *)

val with_updated_dests : t -> Algo.t -> dests:int list -> t
(** A state space for the new algorithm that rebuilds only the slices
    (move graphs and records included) of the listed destinations,
    sharing every
    other destination's structures with [t].
    Sound when the algorithms agree on every destination outside [dests] —
    the caller (Diff / Incr) is responsible for that frontier; the result
    is then indistinguishable from [build net algo].  So is a refusal: the
    rebuilt destinations' reachable states are checked as {!build} checks
    them, and a problem raises [Invalid_argument] with the message a cold
    [build] of [algo] gives.  Also raises [Invalid_argument] on an
    out-of-range destination, or when [algo] carries a [reduced_waits]
    hint and [t] was built without one (the clean destinations' hint
    tables cannot be filled in retroactively). *)

val stuck_states : t -> (int * int) list
(** Reachable states that are neither arrived nor have any output: the
    routing relation dead-ends there (a malformed algorithm).  Read off
    the slices' [view_stuck] records in O(nodes + result), in
    [iter_reachable] order. *)

val waitless_states : t -> (int * int) list
(** Reachable states that are not arrived and have an empty waiting set
    under the algorithm's rule, from the [view_waitless] records, in
    [iter_reachable] order.  The algorithm is wait-connected iff the
    list is empty. *)
