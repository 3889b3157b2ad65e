(** The Buffer Waiting Graph (§3-§4 of the paper).

    Vertices are the network's buffers.  There is an edge [(q1, q2)] when a
    packet that occupies [q1] can wait for [q2]:

    - for store-and-forward and virtual cut-through, a blocked packet sits
      in exactly one buffer, so [q2] must be in the waiting set of the
      state [(q1, dest)] itself;
    - for wormhole routing the packet may occupy the whole chain of buffers
      from [q1] to the buffer its header blocks in, so the edge relation is
      closed under permitted route continuations ("the packet length is
      sufficient to fill the buffers from q1 to q2").

    Every edge carries witnesses [(dest, head)] recording which traffic
    creates it; the cycle classifier reconstructs the occupied paths from
    them. *)

type wait_sets = buf:int -> dest:int -> int list
(** A waiting rule: the algorithm's full [waits], or a reduced BWG'
    candidate ({!Session}). *)

type witness = { dest : int; head : int }
(** A packet destined [dest] can sit with [q1] occupied and its header
    blocked in buffer [head], whose waiting set contains the edge target. *)

type t

val build :
  ?witness_cap:int ->
  ?indirect:bool ->
  ?domains:int ->
  ?dense_closures:bool ->
  State_space.t ->
  t
(** Each destination's continuation closures are computed over that
    destination's own reachable buffers, so per-destination work is sized
    by its states rather than by the network; every emitted edge is
    recorded in O(1) (DESIGN.md §3).  This is the full BWG, under the
    algorithm's whole waiting rule; it alone sets the [bwg.edges] and
    [bwg.vertices] gauges.  A BWG' comes from a {!Session}.
    [witness_cap] bounds the witnesses retained per edge (default 32).
    [domains] (default 1) fans the per-destination continuation closures
    out over OCaml 5 domains; the per-destination work is independent, the
    merge is deterministic, and the result is identical to the serial
    build (tested).
    [indirect] (default [true]) controls the wormhole continuation
    closure; building with [~indirect:false] keeps only the direct "waits
    of the occupied buffer's own state" edges.  That is {e unsound} for
    wormhole networks — a packet spans a chain of buffers — and exists
    purely for the ablation experiment showing the closure is what catches
    Duato's incoherent example.
    [dense_closures] (default [false]) forces every per-destination
    reachability closure row into the dense bitmap representation instead
    of the hybrid sparse/dense one.  The resulting graph is identical
    (tested); the flag exists so the equivalence tests and the memory
    benches can compare the two allocation regimes. *)

val dest_edges :
  ?wait_sets:wait_sets ->
  ?dense_closures:bool ->
  State_space.t ->
  dest:int ->
  emit:(int -> int -> witness -> unit) ->
  unit
(** The waiting edges contributed by one destination's traffic, streamed to
    [emit q1 q2 witness] in exactly the order {!build} records them
    (buffers in [reachable_with] order; per buffer, waiting heads
    ascending; per head, waits in rule order).  The BWG's edge set is the
    union of these per-destination emissions over all destinations — this
    is the decomposition the incremental re-checker caches and diffs, one
    destination at a time.  For wormhole networks the indirect continuation
    closure is always applied (there is no [indirect] ablation knob
    here). *)

type group = { q1 : int; head : int; targets : int list }
(** One run of a destination's emission sequence: the waits [targets] of
    [head], in rule order, emitted for the occupied buffer [q1]. *)

val dest_groups : ?wait_sets:wait_sets -> State_space.t -> dest:int -> group list
(** {!dest_edges} compressed into its (q1, head) runs, in emission order:
    concatenating the groups' targets reproduces the emission sequence.
    This is the per-destination unit both {!Incr} and {!Session} cache. *)

val replay :
  ?wait_sets:wait_sets ->
  ?witness_cap:int ->
  State_space.t ->
  ((int -> int -> witness -> unit) -> unit) ->
  t
(** [replay space f] constructs a BWG by handing [f] the same edge recorder
    {!build} uses internally and letting the caller drive every emission.
    If [f] emits, for each destination in ascending order, exactly the
    sequence {!dest_edges} produces for that destination, the result is
    structurally identical to [build space] — same adjacency, same witness
    lists, same caps — by construction, since the emissions pass through
    the same recorder in the same order.  This is the incremental
    re-checker's slow path: it replays its cached per-destination emission
    lists instead of recomputing the continuation closures. *)

val space : t -> State_space.t
val graph : t -> Dfr_graph.Digraph.t

val witnesses : t -> int -> int -> witness list
(** Witnesses of edge [q1 -> q2] ([[]] if absent). *)

val is_acyclic : t -> bool

val topological_order : t -> int list option
(** A linear buffer ordering proving acyclicity (Theorem 1's certificate),
    if one exists. *)

val cycles : ?limits:Dfr_graph.Cycles.limits -> t -> int list list * bool
(** Elementary cycles and whether enumeration was exhaustive (false = the
    cap was hit and cycles may be missing). *)

val fold_cycles :
  ?limits:Dfr_graph.Cycles.limits ->
  t ->
  (int list -> 'a -> 'a Dfr_graph.Cycles.step) ->
  'a ->
  'a * bool
(** The cycles of {!cycles}, in the same order, streamed to [f], which may
    stop the enumeration early ({!Dfr_graph.Cycles.fold_rows}). *)

val unconnected_states : ?domains:int -> t -> (int * int) list
(** Reachable, unarrived, non-delivery states whose waiting set under
    [wait_sets] is empty.  The algorithm is wait-connected for this graph
    iff the list is empty (§3: every loss-less algorithm must be).
    [domains] parallelizes the scan over the shared pool; the list is
    identical to the serial scan's
    ({!State_space.filter_reachable}). *)

val is_wait_connected : t -> bool

val to_dot : t -> string
(** DOT rendering with paper-style buffer labels (transit buffers only). *)

(** {2 Wait-set sessions}

    A Theorem-3 search probes a sequence of BWG's, each a few wait entries
    away from the last.  A session owns the live wait sets of one state
    space: {!Session.remove} and {!Session.restore} change single
    entries and mark their destination dirty, and {!Session.bwg}
    re-derives only the dirty destinations and patches the changed edges
    and witnesses in place.  The continuation closures run once, on the
    first read; routes are fixed, so a destination's emissions under any
    subset of its rule are its groups ({!dest_groups}) under the full
    rule with each head's targets narrowed to its live entries.

    Re-derivations run under the [bwg.closure] span and the patching
    under [bwg.patch]; [bwg.session.rederived] counts the destinations
    derived (all of them on the first read). *)
module Session : sig
  type bwg := t
  type t

  val create : ?witness_cap:int -> ?waits:wait_sets -> ?domains:int -> State_space.t -> t
  (** A session over the waiting rule [waits] (default: the algorithm's
      waiting sets), every entry live.  Cheap: nothing is derived before
      the first {!bwg}, whose closures [domains] fans out over the pool
      as {!build} does.  [witness_cap] as for {!build}. *)

  val waits : t -> wait_sets
  (** The live waiting set of a reachable state, a subsequence of the
      rule; [[]] for an unreachable one. *)

  val is_live : t -> buf:int -> dest:int -> int -> bool
  (** [is_live s ~buf ~dest target]: the entry has not been removed.
      True for a target outside the rule and for an unreachable state. *)

  val remove : t -> buf:int -> dest:int -> int -> unit
  (** Drops one live entry of a reachable state.  Raises
      [Invalid_argument] when the state is unreachable or has no live
      entry [target]. *)

  val restore : t -> buf:int -> dest:int -> int -> unit
  (** Re-admits one removed entry, at its place in the rule.  Raises
      [Invalid_argument] when there is none to re-admit. *)

  val bwg : t -> bwg
  (** The BWG' of the live wait sets.  Its edge set and every edge's
      witness list read exactly as a cold build's ({!replay} over
      {!dest_edges} with these wait sets; tested), and its wait sets are
      the live ones.  The value is patched in place by the next read
      after a change, and its adjacency rows may list successors in
      another order than a cold build's; {!snapshot} gives one to keep. *)

  val snapshot : t -> bwg
  (** A BWG' structurally identical to a cold build of the current live
      wait sets, adjacency order included, that later changes to the
      session leave alone: the session's emissions replayed through
      {!replay}. *)
end
