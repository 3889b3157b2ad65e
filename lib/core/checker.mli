(** The paper's decision procedure, end to end.

    Given a network and a routing algorithm, the checker builds the
    reachable state space and the buffer waiting graph and then applies, in
    order:

    - {b Theorem 1}: wait-connected + acyclic BWG ⇒ deadlock-free;
    - {b Theorem 2} (specific-wait): deadlock-free ⇔ wait-connected and
      no True Cycle — a True Cycle yields the witness deadlock
      configuration of the necessity proof;
    - {b Theorem 3} (multi-wait): deadlock-free ⇔ some wait-connected
      BWG' has no True Cycle — the full BWG first, its cycles streamed to
      the first True one, then the algorithm's verified hint, then
      automatic reduction search; an exhaustive failed search is a
      deadlock verdict by the theorem's necessity direction.

    Because enumeration and classification are worst-case exponential, the
    checker can also return [Unknown] with the cap that was hit. *)

open Dfr_network
open Dfr_routing

type proof =
  | Acyclic_bwg  (** Theorem 1 *)
  | No_true_cycles of { cycles_examined : int }  (** Theorem 2 *)
  | Reduced_bwg of { via_hint : bool; removed : Reduction.removed list }
      (** Theorem 3: the full BWG has a True Cycle, and removing these wait
          entries leaves a wait-connected BWG' with none *)

type failure =
  | Stuck_states of (int * int) list
      (** reachable states with no permitted output: packets are lost *)
  | Not_wait_connected of (int * int) list
  | Knot of Deadlock_config.t
      (** a polynomial-time direct witness: mutually blocking single-buffer
          packets; such a set induces a True Cycle in {e every}
          wait-connected BWG', so it is a deadlock under both disciplines *)
  | True_cycle of { cycle : int list; packets : Cycle_class.packet list }
  | No_reduction of { cycle : int list; packets : Cycle_class.packet list }
      (** every wait-connected BWG' keeps a True Cycle (Theorem 3
          necessity); the witness is the full BWG's first True Cycle in
          enumeration order *)

type verdict =
  | Deadlock_free of proof
  | Deadlock_possible of failure
  | Unknown of string

type report = {
  verdict : verdict;
  space : State_space.t;
  bwg : Bwg.t;  (** the full BWG, under the whole waiting rule *)
  bwg_cycles : int option;
      (** cycles found in the full BWG (capped), when a verdict rests on
          all of them: [No_true_cycles], a specific-wait [True_cycle], or
          an [Unknown] from the scan's caps.  [None] when the verdict was
          reached without enumerating them: before the scan, or after a
          multi-wait scan that stopped at its first True Cycle *)
}

val check :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  report
(** [domains] parallelizes the BWG construction over OCaml 5 domains
    (default 1; see {!Bwg.build}), and a specific-wait check's cycle
    classification, which fans the shortest-first scan out
    ({!Cycle_class.first_true_cycle}).  A multi-wait check's stream and
    search run serially.  Verdicts are bit-for-bit identical to the
    serial run: the fan-out still reports the True Cycle of minimal index
    in the shortest-first order.  [cycle_limits] caps the cycle
    enumerations; classification runs under {!Cycle_class}'s default
    caps and the Theorem-3 search under {!Reduction.search}'s default
    budget. *)

val decide :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?domains:int ->
  stuck:(int * int) list ->
  unconnected:(int * int) list ->
  State_space.t ->
  Bwg.t ->
  report
(** The verdict pipeline downstream of the BWG build — exactly the code
    {!check} runs after constructing [space] and [bwg], exposed for the
    incremental re-checker, which reads the stuck and wait-less states
    its state table records and keeps the BWG per destination, and hands
    them over here (the BWG as its session's live {!Bwg.Session.bwg}).
    No stage reads the order of an adjacency row, so a live BWG decides
    as a cold build of the same wait sets does.  The acyclicity test is
    the [checker.acyclic] stage; [Stuck_states] and [Not_wait_connected]
    return before it, and they and [Acyclic_bwg] before the knot,
    cycle-scan and classify stages, which then appear as zero-duration
    spans.  [stuck] and
    [unconnected] must be what {!State_space.stuck_states} and
    {!Bwg.unconnected_states} would return (reachable-iteration order);
    [unconnected] is only consulted when [stuck] is empty, so callers
    holding stuck states may pass [[]].

    The scan stage is {!Cycle_class.shortest_first_scan} for a
    specific-wait algorithm, whose witness is the shortest True Cycle,
    and {!Cycle_class.streaming_scan} for a multi-wait one, which needs
    only whether the full BWG has a True Cycle; both record their
    [checker.cycle-scan] and [checker.classify] spans.  At a True Cycle,
    Theorem 3 runs the hint check and the search on [bwg]'s own session
    ({!Bwg.session}), which must come with every entry live, and hands it
    back that way, read, so the report's BWG is the full BWG. *)

val verdict :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  verdict
(** Just the verdict of {!check}. *)

val check_result :
  ?cycle_limits:Dfr_graph.Cycles.limits ->
  ?domains:int ->
  Net.t ->
  Algo.t ->
  (report, string) result
(** Re-entrant {!check} for long-lived callers (the serving layer): a
    structurally invalid algorithm or a raising route function becomes
    [Error msg] instead of an exception, and calls may run concurrently
    from multiple domains — every structure {!check} builds is allocated
    per call. *)

val is_deadlock_free : verdict -> bool option
(** [Some true] / [Some false] / [None] for [Unknown]. *)

val pp_verdict : Net.t -> Format.formatter -> verdict -> unit
