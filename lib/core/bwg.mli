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
(** Opens the session ({!Session}) whose live view the result is, under
    the algorithm's whole waiting rule: this is the only way to make a
    BWG.  Each destination's continuation closures are computed over that
    destination's own reachable buffers, so per-destination work is sized
    by its states rather than by the network.  They yield the
    destination's (occupied buffer, waiting head) groups, which the
    session keeps; one pass then buckets every group's emissions by
    occupied buffer and de-duplicates each bucket, so edges enter each
    adjacency row in first-emission order (DESIGN.md §3).  No witness
    list is stored: {!witnesses} derives one from the groups when read.
    Only the build sets the [bwg.edges] and [bwg.vertices] gauges, the
    full BWG's.  Captures run under [bwg.closure] and the pass under
    [bwg.bucket], which counts [bwg.emissions] (before de-duplication)
    and [bwg.witnesses.capped], so these count full builds only.
    [witness_cap] bounds the witnesses per edge (default 32); every
    edge keeps its first, so a cap below 1 acts as 1.
    A list the cap cut says so ({!witnesses}), and a classification that
    read it is not exhaustive ({!Cycle_class.classify}): a True Cycle may
    need a witness past the cap.
    [domains] (default 1) captures the groups over OCaml 5 domains; the
    pass is serial, so the result is identical to the serial build
    (tested).
    [indirect] (default [true]) controls the wormhole continuation
    closure; building with [~indirect:false] keeps only the direct "waits
    of the occupied buffer's own state" edges.  That is {e unsound} for
    wormhole networks — a packet spans a chain of buffers — and exists
    purely for the ablation experiment showing the closure is what catches
    Duato's incoherent example.
    [dense_closures] (default [false]) stores every per-destination
    reachability closure row as a bitmap instead of choosing per row
    between a sorted run and a bitmap.  The rows of one destination go
    to its domain's reusable arena ({!Dfr_util.Bitset.Arena}), which
    [bwg.closure.words] and [bwg.closure.dense-rows] measure.  The
    resulting graph is identical (tested); the flag exists so the
    equivalence tests and the memory benches can compare the two
    layouts.  The session keeps all three: its witness lists stay under
    [witness_cap], and {!Session.update} captures again with [indirect]
    and [dense_closures]. *)

val dest_edges :
  ?dense_closures:bool ->
  State_space.t ->
  dest:int ->
  emit:(int -> int -> witness -> unit) ->
  unit
(** The waiting edges contributed by one destination's traffic, streamed to
    [emit q1 q2 witness] in the order of the groups {!build} keeps
    (buffers in [view_bufs] order; per buffer, waiting heads
    ascending; per head, waits in rule order).  The BWG's edge set is the
    union of these per-destination emissions over all destinations — this
    is the decomposition {!build} and a {!Session} keep, one destination
    at a time.  For wormhole networks the indirect continuation closure
    is always applied (there is no [indirect] ablation knob here). *)

val space : t -> State_space.t
val graph : t -> Dfr_graph.Digraph.t

val witnesses : t -> int -> int -> witness list * bool
(** Witnesses of edge [q1 -> q2], and whether the list holds them all
    ([([], true)] if the edge is absent): destinations ascending; in
    each, [q1]'s groups, heads ascending, one witness per emission of
    [q2] by the group's head; the first [witness_cap].  The flag is
    [false] only when an emission past the cap exists, never merely
    because the list reached it: the walk that derives the list looks
    one emission further, as {!Cycle_class.simple_paths} does for paths.
    Derived from the kept groups on every read.  Any domain may read it
    while nothing writes those groups and wait sets: between a read
    ({!build}, {!Session.bwg}) and the session's next change or read. *)

val is_acyclic : t -> bool
(** Whether {!Session.rank} of the BWG's session is [Some]. *)

val topological_order : t -> int list option
(** A linear buffer ordering proving acyclicity (Theorem 1's certificate),
    if one exists. *)

val fold_cycles :
  ?limits:Dfr_graph.Cycles.limits ->
  t ->
  (Dfr_graph.Cycles.path -> 'a -> 'a Dfr_graph.Cycles.step) ->
  'a ->
  'a * bool
(** The elementary cycles, streamed to [f] as path views the moment the
    search closes them, and whether enumeration was exhaustive (false =
    a cap cut it short and cycles may be missing); [f] may stop the
    enumeration early ({!Dfr_graph.Cycles.fold_rows}).  Reads the
    adjacency in place. *)

val cycles : ?limits:Dfr_graph.Cycles.limits -> t -> int list list * bool
(** The cycles of {!fold_cycles}, in the same order, copied to lists. *)

val unconnected_states : t -> (int * int) list
(** Reachable, unarrived states whose waiting set in this graph is
    empty, in {!State_space.iter_reachable} order.  The algorithm is
    wait-connected for this graph iff the list is empty (§3: every
    loss-less algorithm must be).  While no entry of the session has been
    removed or restored, its wait sets are the algorithm's, so this reads
    the state table's wait-less record ({!State_space.waitless_states},
    O(nodes)) and scans nothing; after that it scans the live rows. *)

val is_wait_connected : t -> bool

val to_dot : t -> string
(** DOT rendering with paper-style buffer labels (transit buffers only). *)

(** {2 Sessions}

    A Theorem-3 search probes a sequence of BWG's, each a few wait entries
    away from the last, and the incremental re-checker ({!Incr}) a
    sequence of BWGs, each a few destinations' slices away from the last.
    A session serves both, and every BWG is the live view of one: the
    session {!build} opened.  It owns the live wait sets of one state
    space: {!Session.remove} and {!Session.restore} change single entries
    and {!Session.update} replaces whole destinations' slices.  Its one
    rule is the algorithm's, the slices' own wait rows; every other rule
    (the [reduced_waits] hint, a search candidate, a synthesized BWG') is
    that rule with entries removed.  The live sets are one flag per rule
    entry, in rule order; a destination gets its flags when one of its
    entries first changes, so a session that changes none allocates
    nothing per state for them.

    The continuation closures run once per destination, in {!build}:
    routes are fixed between slice replacements, so a destination's
    emissions under any subset of its rule are its (occupied buffer,
    waiting head) groups under the full rule with each head's waits
    narrowed to its live entries.  Per edge a session that has changed
    keeps only the number of live emissions, the edge existing while it
    is positive, in a flat table ({!Dfr_util.Count_table}).  The first
    change (a {!Session.remove}, a {!Session.restore}, or a
    {!Session.update} that moves counts) makes that table from the live
    sets the last read left, by {!build}'s edge pass, entering each edge
    once with its count; later, a change moves the counts of the edges
    it generates.  No read makes the table, so a session that never
    changes (a Theorem-1 or knot check) does no more than {!build}.
    Witness lists are derived from the groups when read.

    Captures run under the [bwg.closure] span and count work under
    [bwg.patch]: the table's making, a read's moves and
    {!Session.update}'s.  A read with no change pending opens no
    [bwg.patch] span; [bwg.session.rederived] counts the destinations a
    read brought up to date. *)
module Session : sig
  type bwg := t
  type t

  val space : t -> State_space.t
  (** The current state space: the one given to {!build} or the last
      {!update}. *)

  val is_live : t -> buf:int -> dest:int -> int -> bool
  (** [is_live s ~buf ~dest target]: the entry has not been removed.
      True for a target outside the rule and for an unreachable state. *)

  val remove : t -> buf:int -> dest:int -> int -> unit
  (** Drops one live entry of a reachable state (the first live copy,
      should the rule repeat [target]).  Raises [Invalid_argument] when
      the state is unreachable or has no live entry [target]. *)

  val restore : t -> buf:int -> dest:int -> int -> unit
  (** Re-admits one removed entry, at its place in the rule (the first
      removed copy).  Raises [Invalid_argument] when there is none to
      re-admit. *)

  val update : t -> State_space.t -> dests:int list -> int
  (** [update s space ~dests] moves the session to [space], a
      {!State_space.with_updated_dests} of its current space over [dests].
      Each listed destination takes the new slice's rule, every entry
      live (its removals are forgotten).  It keeps its groups when its
      routes are unchanged and no state with an empty rule gains waits,
      and then only the counts of the entries that change move, as for
      {!remove} and {!restore}; otherwise its closures run again and all
      its emissions move out and back in.  [bwg.session.moves] counts
      the ±1 moves of an update or a read.  Returns how many of [dests]
      kept their groups. *)

  val emitters : t -> int -> int -> witness list
  (** [emitters s q1 q2]: every distinct [(dest, head)] whose live waits
      generate edge [q1 -> q2] of the live BWG', uncapped: the walk behind
      {!witnesses}, one record per group rather than per emission, so in
      the same order (destinations ascending, then heads ascending).
      [q1] and [q2] must be buffers of the space.  Reads the groups and
      the live sets as they are now, with no count work. *)

  val bwg : t -> bwg
  (** Reads the session: the live view of the BWG' of the live wait sets,
      brought up to date.  Its edge set and every edge's witness list
      read exactly as a {!build} of the algorithm narrowed to these wait
      sets (tested), its wait sets are the live ones, and {!is_acyclic}
      reads {!rank}.  The graph is patched in place by the next read
      after a change, and its adjacency rows may list successors in
      another order than a cold build's, which no verdict reads: cycle
      queries sort rows, classification asks
      {!Dfr_graph.Digraph.mem_edge} and {!witnesses}, reports count edges
      (DESIGN.md §9).  Witnesses are derived from the session's groups
      and live sets when read, so read them before the next change.
      Nothing writes those, nor the graph, between this read and the
      next change or read, so {!Checker.decide}'s classification may read
      the view's witnesses from pool workers at [--domains] > 1. *)

  val rank : t -> int array option
  (** Theorem 1's certificate for the live BWG': [Some rank] with
      [rank.(q1) < rank.(q2)] on every edge [q1 -> q2], or [None] when it
      has a cycle.  A rank survives edge removals and rank-forward
      additions; otherwise a Kahn pass over the graph recomputes it. *)
end

val session : t -> Session.t
(** The session whose live view this BWG is. *)
