(** Automatic BWG' synthesis, restriction repair, and optimality
    certification — the constructive side of the paper's Theorem 3.

    The checker decides deadlock freedom of a {e given} design; this
    module {e finds} designs.  Both searches run on {!Clause_search}, the
    conflict-driven engine the checker also uses:

    - {!synthesize} (Theorem 3 forward): find a wait-connected,
      True-Cycle-free subset of the waiting rule — a BWG' — for a
      multi-wait algorithm, without a hand-supplied hint.  This is the
      checker's own {!Reduction.search}, so it finds the BWG' the checker
      reports for the same hintless design;
    - {!repair} (design methodology, §6): given a deadlocking algorithm,
      re-decide, for every (occupied buffer, destination) state and every
      physical hop it takes, {e which} virtual copy of that hop to use —
      a conflict-driven search over copy assignments whose solution space
      contains the classic dateline/layered designs;
    - {!certify} (Theorem 6 style): prove a candidate restriction maximal
      by exhibiting, for every removed entry, a True Cycle that appears
      the moment that single entry is re-admitted — each witness is a
      machine-checkable certificate replayed with {!replay}.

    The engine learns {e blocking clauses} from every True Cycle it
    meets: the witness packets name the entries generating the cycle's
    edges, and as long as all of them stay in place the same cycle
    recurs — so at least one must go.  Candidates violating a learned
    clause are pruned without a probe.  In {!synthesize}
    routes are fixed, the implication is exact, and exhaustion is an
    honest [Unsat] — Theorem 3's necessity direction.  In {!repair}
    reassignments change occupancy, clauses are heuristic, and
    exhaustion only says [Gave_up]; the accepted candidate is instead
    re-verified end to end by the checker.

    Every search is deterministic: no wall clock or randomness enters,
    and [domains] only parallelizes BWG construction, whose merge is
    deterministic. *)

open Dfr_network
open Dfr_routing
open Dfr_core

type stats = {
  rebuilds : int;  (** probes (BWG' reads), the search's cost unit *)
  decisions : int;  (** branch choices taken *)
  conflicts : int;  (** True Cycles discovered by probes *)
  learned : int;  (** distinct blocking clauses recorded *)
  pruned : int;  (** candidates rejected by a learned clause, no probe *)
  restored : int;  (** removals undone by greedy minimization *)
}

type success = {
  space : State_space.t;
      (** the candidate's state space — {!repair} rebuilds it from the
          repaired relation; {!synthesize} passes the input through *)
  bwg : Bwg.t;
      (** the final candidate BWG: wait-connected, no True Cycle found
          (exhaustively, for the verified paths).  {!synthesize} gives a
          live view ({!Bwg.Session.bwg}) of the session its search ran
          on, holding [removed] ({!certify} probes it too); {!repair},
          the report's BWG of the checker's re-verification, the full
          BWG of the repaired relation *)
  algo : Algo.t;  (** the input algorithm with the synthesized rule wired
                      in via {!Algo.with_waits} / {!Algo.with_relation} *)
  removed : Reduction.removed list;
      (** ascending; relative to the full waiting rule ({!synthesize}) or
          the widened relation ({!repair}) *)
  widened : int;
      (** {!repair}: route entries the virtual-copy widening added on top
          of the original relation; [0] for {!synthesize} *)
  spec : (string, string) result;
      (** the result reprinted as a checkable [.dfr]
          ({!Dfr_spec.Printer}) *)
  stats : stats;
}

type outcome =
  | Synthesized of success
  | Already_free of Checker.proof
      (** {!repair} only: the input needs no repair *)
  | Unsat of string
      (** {!synthesize} only, and honest: no wait-connected BWG' without a
          True Cycle exists (Theorem 3 ⇒ the algorithm deadlocks).
          {!repair} folds this case into [Gave_up] — unsatisfiability of
          one particular widening is not a verdict on the design. *)
  | Gave_up of string  (** a cap or budget hit; no conclusion *)

val synthesize :
  ?budget:int ->
  ?domains:int ->
  ?minimize:bool ->
  State_space.t ->
  outcome
(** Find a BWG' for the algorithm of [space].  Stuck states, a state
    with no wait under the full rule, and a knot ({!Deadlock_config})
    answer [Unsat] at once; otherwise {!Reduction.search} runs with
    [budget] probes (default 4000) on a session that becomes the
    result's.  [minimize] (default false) runs a greedy restore pass on
    it so the removed set is 1-minimal — the form {!certify} expects.
    An algorithm whose full BWG is already True-Cycle-free synthesizes
    with [removed = \[\]]. *)

val repair :
  ?budget:int ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  outcome
(** Repair a deadlocking algorithm.  The relation is first widened
    across the virtual copies of each physical resource (other virtual
    channels of the same link; other buffer classes of the same node) —
    a deadlocking single-VC design has no freedom left to restrict, so
    the unused copies must open first.  Restricting only the {e waiting}
    rule of that widened design cannot work in this model (movement
    follows routes, so the widened occupancy itself deadlocks — a knot);
    the search instead assigns, per state and physical hop, exactly one
    virtual copy.  Each probe rebuilds the candidate and classifies its
    cycles shortest first.  Conflicts (True Cycles and knots of the
    candidate) learn value clauses — "at least one occupant of this
    cycle must take a different copy" — and per-destination
    deliverability from every
    injection is kept as an invariant of every reassignment
    (decrementally, via {!Dfr_graph.Reach}).  A greedy re-admission pass
    then restores removed copies wherever freedom survives, making the
    removal set 1-minimal, and the result is re-verified end to end with
    {!Checker.verdict} before being reported. *)

type cert_item = {
  relaxed : Reduction.removed;
  cycle : int list;
  packets : Cycle_class.packet list;
}
(** Re-admitting [relaxed] alone creates [cycle], realized by
    [packets]. *)

type certification =
  | Maximal of cert_item list  (** one witness per removed entry *)
  | Relaxable of Reduction.removed list
      (** these removals were unnecessary: re-admitting any one of them
          leaves the BWG' True-Cycle-free *)
  | Cert_unknown of string  (** a classification cap hit *)

val certify : success -> certification
(** Theorem-6-style maximality: for each entry of the result's [removed],
    probe the BWG' with that single entry restored and demand a True
    Cycle.  The probes are single-entry deltas of the result's own
    session, which runs no closure again and is handed back at the BWG'
    ([bwg] reads it).  Run it on a minimized {!synthesize} result.  A
    {!repair} result's removals are route entries, not removed wait
    entries of its session, so it raises [Invalid_argument]
    ({!Bwg.Session.restore}) unless it removed nothing. *)

val replay :
  State_space.t ->
  removed:Reduction.removed list ->
  cert_item list ->
  bool list
(** Independent check of certificates, one verdict per item: the
    session of a fresh {!Bwg.build}, [removed] removed, restores each
    item's entry in turn, confirms every consecutive pair of [cycle] is
    an edge of that BWG',
    and re-classifies the cycle through {!Cycle_class.classify} — the
    same machinery the checker trusts.  [removed] must be the
    certification's removed set. *)

val bwg_prime_dot : success -> string
(** DOT overlay of a {!synthesize} result: the full BWG with kept (BWG')
    edges solid and removed edges dashed, vertex labels in the paper's
    buffer notation. *)

val describe_entry : Net.t -> Reduction.removed -> string
