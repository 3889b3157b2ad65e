(** Bridging the checker's symbolic witnesses and the simulators.

    A deadlock verdict from {!Dfr_core.Checker} comes with a configuration
    (a knot of mutually blocking packets, or a True Cycle's packet set).
    These helpers seat that configuration in the matching simulator and
    report whether the network is dynamically stuck — the executable
    counterpart of the paper's necessity proofs. *)

open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim

val preloads_of_knot : Deadlock_config.t -> Drive.preload list
(** One single-buffer packet per knot state; no fillers needed (the knot is
    already saturated). *)

val preloads_of_true_cycle :
  State_space.t -> Cycle_class.packet list -> Drive.preload list
(** The True Cycle's packets on their occupied chains (one buffer each on
    a store-and-forward or cut-through network), plus frozen filler
    packets holding every other free output of each blocked header — the
    "previous packet occupying this output indefinitely" of Theorem 2's
    proof. *)

val replay :
  ?space:State_space.t ->
  Net.t ->
  Algo.t ->
  Checker.failure ->
  bool option
(** Replays a checker failure in the simulator of the network's
    switching: {!Wormhole_sim} or {!Saf_sim}, at its default
    configuration.
    [Some true] = deadlock confirmed dynamically; [Some false] = the
    configuration drained; [None] = this failure kind has nothing to
    replay (wait-connectivity and stuck-state failures).

    [space] lets callers holding a {!Checker.report} reuse its state
    space instead of rebuilding it (the True-Cycle filler construction
    needs the per-state output sets). *)

(** {2 Fault campaigns}

    A campaign takes a checked instance and a {!Fault} plan and re-checks
    the degraded instance after each fault (sweep: every fault alone) or
    each tick of the timeline (sequence: faults accumulate), classifying
    every verdict.  Skeleton-preserving faults ride one incremental
    {!Dfr_core.Incr} session — the k-fault sweep pays the delta cost, not
    k cold checks — and node kills fall back to cold checks of the
    rebuilt network.  The rendered campaign is byte-identical whether it
    ran incrementally or cold ([?cold]) and at any [?domains] (pinned by
    the determinism tests). *)

type classification =
  | Still_free  (** the degraded instance is still deadlock-free *)
  | Deadlocked of { kind : string; cycle : string list }
      (** the fault created a genuine deadlock (a True Cycle, knot or
          wait-connectivity failure); [cycle] names the witness buffers *)
  | Disconnected of (int * int list) list
      (** the fault severed routes: for each destination, the source
          nodes with no surviving path ({!Degrade.disconnections}) *)
  | Undetermined of string  (** the checker returned Unknown *)

type outcome = {
  at : int;  (** the plan tick *)
  label : string;  (** the fault(s) newly applied, {!Fault.describe}d *)
  killed : int list;  (** all buffer ids dead at this point (old skeleton) *)
  classification : classification;
  report : Dfr_util.Json.t;  (** the degraded instance's full report *)
  exit_code : int;
}

type campaign = {
  network : string;
  algorithm : string;
  plan_name : string option;
  seed : int;
  mode : [ `Sweep | `Sequence ];
  baseline : Dfr_util.Json.t;
  baseline_exit : int;
  space : State_space.t;  (** the pristine baseline space *)
  outcomes : outcome list;
  exit_code : int;  (** max over the baseline and every outcome *)
}

val campaign :
  ?domains:int ->
  ?cold:bool ->
  mode:[ `Sweep | `Sequence ] ->
  Net.t ->
  Algo.t ->
  Fault.t ->
  (campaign, string) result
(** Run the plan.  [?cold] forces a fresh {!Checker.check} per fault
    instead of the incremental session — same bytes, k times the cost
    (the determinism tests and benches rely on both properties). *)

val campaign_to_json : campaign -> Dfr_util.Json.t
(** The campaign envelope.  Deliberately silent about which path
    (incremental or cold) produced each report, so the two render
    byte-identically. *)

(** {2 Deadlock-seeking traffic} *)

val seeking_traffic :
  State_space.t -> length:int -> Checker.failure -> Traffic.t option
(** A workload aimed straight at a checker witness: one scripted packet
    per witness packet, following its occupied chain.  [None] when the
    failure carries no packet configuration (stuck states,
    wait-connectivity) or every witness packet starts at its own
    destination. *)
