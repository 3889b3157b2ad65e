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
    destination's reachable states, so its size is O(states), not
    O(buffers * nodes) — what lets 10^4-10^5-buffer instances fit in
    memory, and what makes a destination's states a field read
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

val outputs : t -> buf:int -> dest:int -> int list
(** Permitted transit outputs of a reachable state; [[]] when the head is
    at the destination (the packet proceeds to delivery) or the state is
    unreachable. *)

val waits : t -> buf:int -> dest:int -> int list
(** Waiting buffers of a reachable state (same conventions). *)

val reduced_waits : t -> (buf:int -> dest:int -> int list) option
(** The algorithm's BWG' hint filtered to reachable states, if any. *)

val arrived : t -> buf:int -> dest:int -> bool
(** The head of a packet in this state is at its destination. *)

val iter_reachable : t -> (buf:int -> dest:int -> unit) -> unit

val move_graph : t -> dest:int -> Dfr_graph.Csr.t
(** Buffer-to-buffer moves available to packets destined for [dest]
    (restricted to reachable states), frozen to CSR and cached.  The lazy
    cache is not safe to populate from several domains at once — callers
    that fan work out call {!materialize_move_graphs} first.

    Records [space.move-graph.hits]/[.builds] observability counters; use
    {!move_graph_quiet} on paths whose cache behaviour varies with the
    domain count (see DESIGN.md, observability architecture). *)

val move_graph_quiet : t -> dest:int -> Dfr_graph.Csr.t
(** [move_graph] without the cache counters. *)

val move_graph_view : t -> dest:int -> Dfr_graph.Csr.t
(** The cached graph when present, otherwise a fresh build that is {e not}
    retained (and no counters).  Single-visit passes use this so the cache
    never pins N per-destination CSRs at once; at 10^5 buffers that cache
    alone would dwarf the state table. *)

val materialize_move_graphs : ?domains:int -> t -> unit
(** Populate the move-graph cache for every destination (required before
    fanning work out over domains).  Counts cache builds but not hits, so
    the counters agree between lazy serial and eager parallel builds.
    With [domains > 1] the fill itself fans out over the pool (each
    destination's slot is written at most once, chunks are disjoint). *)

val reachable_with : t -> dest:int -> int list
(** Buffers some [dest]-bound packet can occupy, ascending. *)

(** {2 Incremental access}

    The state table decomposes by destination — a destination's slice is a
    pure function of (net, algo restricted to that destination) — which is
    the sharing unit of the incremental re-checker. *)

type dest_view = {
  view_bufs : int array;  (** reachable buffers, ascending *)
  view_outs : int list array;  (** parallel: permitted transit outputs *)
  view_wts : int list array;  (** parallel: waiting sets *)
}

val dest_view : t -> dest:int -> dest_view
(** One destination's reachable states and routing relation as parallel
    arrays, in O(1): the arrays alias the internal slice (do not
    mutate). *)

val with_updated_dests : t -> Algo.t -> dests:int list -> t
(** A state space for the new algorithm that rebuilds only the slices (and
    invalidates only the move-graph cache entries) of the listed
    destinations, sharing every other destination's structures with [t].
    Sound when the algorithms agree on every destination outside [dests] —
    the caller (Diff / Incr) is responsible for that frontier; the result
    is then indistinguishable from [build net algo].  So is a refusal: the
    rebuilt destinations' reachable states are checked as {!build} checks
    them, and a problem raises [Invalid_argument] with the message a cold
    [build] of [algo] gives.  Also raises [Invalid_argument] on an
    out-of-range destination, or when [algo] carries a [reduced_waits]
    hint and [t] was built without one (the clean destinations' hint
    tables cannot be filled in retroactively). *)

val filter_reachable :
  ?domains:int -> t -> (buf:int -> dest:int -> bool) -> (int * int) list
(** The reachable states satisfying a predicate, in [iter_reachable]
    order.  With [domains > 1] the scan chunks by destination over the
    shared {!Dfr_util.Domain_pool} and the merged result is identical to
    the serial scan's (the predicate is then called from several domains
    concurrently — safe for table reads, which is all the scan
    predicates do). *)

val stuck_states : ?domains:int -> t -> (int * int) list
(** Reachable states that are neither arrived nor have any output: the
    routing relation dead-ends there (a malformed algorithm).
    [domains] parallelizes the scan (see {!filter_reachable}). *)

val describe_state : t -> int * int -> string
