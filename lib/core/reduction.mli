(** Reduction of the BWG to a BWG' (Theorem 3, §5).

    For algorithms that let a blocked packet wait on several buffers at
    once, an acyclic BWG is not necessary: it suffices that {e some} subset
    of the waiting rule — wait-connected, with no True Cycles — exists.
    [removed] entries name dropped waiting options [(head, dest, target)]:
    "a packet destined [dest] whose header blocks in [head] no longer waits
    on [target]".  Removing a wait entry only shrinks the waiting sets; the
    routing relation (which buffers may be {e used}) is untouched, exactly
    as the paper prescribes.

    The search mirrors the paper's design methodology: find a True Cycle,
    branch on which of its edges to dissolve (an edge dies only when every
    wait entry generating it is removed), keep wait-connectivity as an
    invariant, backtrack.  It is exponential in the worst case — the paper
    says as much — so a budget caps it. *)

type removed = { head : int; dest : int; target : int }

type outcome =
  | Reduced of Bwg.t * removed list
      (** a verified BWG': wait-connected, no True Cycles *)
  | Impossible
      (** exhaustive search: every wait-connected BWG' has a True Cycle,
          so by Theorem 3 the algorithm deadlocks *)
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
    the witness the tightest one.  Either way the cycles enumerated are
    counted as [reduction.cycles.enumerated].  This is the probe both
    {!search} and the synthesis engine ({!Dfr_synth.Synth}) drive. *)

val verify_hint :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  State_space.t ->
  outcome option
(** Checks the algorithm's declarative [reduced_waits] hint, if present.
    [Some (Reduced _)] when the hint is sound; [Some (Gave_up _)] when it
    is wait-connected but cycles could not be ruled out exhaustively;
    [Some Impossible] is never returned. A broken hint yields
    [Some (Gave_up reason)]. *)

val search :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?class_limits:Cycle_class.limits ->
  ?budget:int ->
  State_space.t ->
  outcome
(** Automatic search from the full waiting rule.  [budget] bounds the
    number of BWG rebuilds (default 2000). *)
