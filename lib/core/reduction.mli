(** Reduction of the BWG to a BWG' (Theorem 3, §5).

    For algorithms that let a blocked packet wait on several buffers at
    once, an acyclic BWG is not necessary: it suffices that {e some} subset
    of the waiting rule — wait-connected, with no True Cycles — exists.
    [removed] entries name dropped waiting options [(head, dest, target)]:
    "a packet destined [dest] whose header blocks in [head] no longer waits
    on [target]".  Removing a wait entry only shrinks the waiting sets; the
    routing relation (which buffers may be {e used}) is untouched, exactly
    as the paper prescribes.

    {!search} mirrors the paper's design methodology: find a True Cycle,
    dissolve one of its edges (an edge dies only when every wait entry
    generating it is removed), keep wait-connectivity as an invariant,
    backtrack.  Underneath it is {!Clause_search}: every True Cycle's
    witness entries become an exact blocking clause, and the clause's
    single entries are the complete fallback after the edge cuts, so the
    search either finds a BWG' or proves that none exists.  It is
    exponential in the worst case — the paper says as much — so a budget
    caps it. *)

type removed = { head : int; dest : int; target : int }
(** [synth --mode repair] uses the same record for a route entry: a packet
    destined [dest] in [head] may move to [target]. *)

type outcome =
  | Reduced of removed list
      (** a verified BWG': the full rule less these entries is
          wait-connected and has no True Cycle *)
  | Impossible
      (** the search ran out of candidates with every probe conclusive:
          every wait-connected BWG' has a True Cycle, so by Theorem 3 the
          algorithm deadlocks *)
  | Gave_up of string  (** a cap was hit; no conclusion *)

val true_cycle_status :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?shortest_first:bool ->
  Bwg.t ->
  ((int list * Cycle_class.packet list) option, string) result
(** One freedom probe of a candidate BWG': [Ok (Some (cycle, packets))]
    is a True Cycle with its witness packets; [Ok None] means every cycle
    was exhaustively classified False; [Error reason] means a cap was hit
    before a verdict: ["cycle enumeration truncated"] when the cycle cap
    cut the enumeration short, otherwise ["cycle classification hit its
    caps"].  By default cycles are classified in enumeration order as
    they stream out of {!Bwg.fold_cycles}, and the enumeration stops at
    the first True Cycle.  [shortest_first] enumerates them all and
    classifies shortest cycles first, which gives callers that learn from
    the witness the tightest one: it is
    {!Cycle_class.shortest_first_scan} under the [reduction] prefix.
    Either way the cycles enumerated are counted as
    [reduction.cycles.enumerated].  {!search} and
    {!verify_hint} use the streaming default; [synth --mode repair] and
    maximality certificates sort shortest first. *)

val verify_hint :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  Bwg.Session.t ->
  outcome option
(** Checks the algorithm's declarative [reduced_waits] hint, if present,
    as the full rule narrowed: every wait entry its hint row does not
    match, copy for copy, is removed from the session (every entry live
    on entry), the BWG' is probed, and the removals are put back: the
    session's next read ({!Bwg.Session.bwg}) is the full BWG again.  On a
    session that had not changed, the first removal makes its count
    table.
    [Some (Reduced \[\])] when the hint is sound; [Some (Gave_up _)]
    when it is wait-connected but cycles could not be ruled out
    exhaustively; [Some Impossible] is never returned. A broken hint
    yields [Some (Gave_up reason)]. *)

val search :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?budget:int ->
  Bwg.Session.t ->
  outcome * Clause_search.stats
(** Automatic search from the full waiting rule, over the wait entries of
    the reachable states, on the session (every entry live on entry).
    Each probe, under [reduction.probe], reads the candidate BWG' off it,
    which re-derives only the destinations whose entries changed since
    the previous probe (probes are counted as [reduction.attempts];
    [budget], default 2000, caps them), and runs the streaming
    {!true_cycle_status}.  At a True Cycle it first tries the edge cuts,
    edges in cycle order, each removing every live entry that generates
    the edge ({!Bwg.Session.emitters}: destinations ascending, then heads
    ascending, one entry per (destination, head)) and allowed only if
    every state it touches keeps a wait; each cut is derived under a
    [reduction.cuts] span.  Then it tries the cycle's witness entries
    one at a time, most active first.  [Reduced]'s removals are in
    decision order, and only they stay removed: [Impossible] and
    [Gave_up] put every removal back.  A probe that hits a cap is
    backtracked over, and the search then ends in [Gave_up], never
    [Impossible].  The variables are built under [reduction.setup]. *)
