(* The differential oracle: one routing problem, two independent
   answers.

   The checker decides deadlock freedom symbolically (Theorems 1-3); the
   simulators answer operationally.  Agreement means:

   - [Deadlock_free]     => no adversarial schedule may deadlock.  We run
     saturating uniform batches under deadlock-seeking configurations
     (tight buffer capacity, several seeds, random output selection) in
     the switching-matched simulator; any [Deadlocked] outcome refutes
     the certificate.
   - [Deadlock_possible] => the attached witness must be dynamically
     stuck.  {!Dfr_scenario.Dfr_scenario.Scenario.replay} seats it (True-Cycle chains plus
     Theorem 2's frozen fillers, or the knot configuration) and a drain
     refutes the witness.  Wait-connectivity and stuck-state failures
     carry no seatable configuration and are only counted.
   - [Unknown]           => accepted (the procedure is worst-case
     exponential), counted.

   The checking function is injectable so tests can confront the
   simulators with a deliberately lying checker and watch the harness
   catch it. *)

open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim

type checkfn = Net.t -> Algo.t -> Checker.report

type disagreement =
  | Certified_free_but_deadlocked of { sim_seed : int }
      (** the checker proved freedom; a simulator run deadlocked *)
  | Witness_refuted
      (** the checker produced a deadlock witness; the seated
          configuration drained *)

type replay_status = Confirmed | Refuted | Not_replayable | No_witness

type outcome = {
  verdict : Checker.verdict;
  replay : replay_status;
  disagreement : disagreement option;
}

let same_kind a b =
  match (a, b) with
  | Certified_free_but_deadlocked _, Certified_free_but_deadlocked _ -> true
  | Witness_refuted, Witness_refuted -> true
  | _ -> false

let describe = function
  | Certified_free_but_deadlocked { sim_seed } ->
    Printf.sprintf "checker certified freedom but the simulator deadlocked (sim seed %d)"
      sim_seed
  | Witness_refuted -> "checker's deadlock witness drained in the simulator"

let default_check net algo = Checker.check net algo

(* Deadlock-seeking stress: saturating closed batch, tight capacity. *)
let stress net algo ~sim_seed ~count =
  let nodes = Net.num_nodes net in
  match Net.switching net with
  | Net.Wormhole ->
    let traffic =
      Traffic.batch_uniform ~num_nodes:nodes ~count ~length:6 ~seed:sim_seed
    in
    Drive.is_deadlocked
      (Wormhole_sim.run
         ~config:
           {
             Wormhole_sim.capacity = 2;
             max_cycles = 50_000;
             seed = sim_seed;
             selection = Wormhole_sim.Random_free;
           }
         net algo traffic)
  | Net.Store_and_forward | Net.Virtual_cut_through ->
    let traffic =
      Traffic.batch_uniform ~num_nodes:nodes ~count ~length:1 ~seed:sim_seed
    in
    Drive.is_deadlocked
      (Saf_sim.run
         ~config:{ Saf_sim.max_cycles = 50_000; seed = sim_seed }
         net algo traffic)

let confront ?(check = default_check) ?(sim_seeds = [ 1; 2; 3 ]) ?(count = 8)
    net algo =
  let report = check net algo in
  match report.Checker.verdict with
  | Checker.Deadlock_free _ as verdict ->
    let offender =
      List.find_opt (fun sim_seed -> stress net algo ~sim_seed ~count) sim_seeds
    in
    {
      verdict;
      replay = No_witness;
      disagreement =
        Option.map (fun sim_seed -> Certified_free_but_deadlocked { sim_seed })
          offender;
    }
  | Checker.Deadlock_possible failure as verdict -> (
    match Dfr_scenario.Scenario.replay ~space:report.Checker.space net algo failure with
    | Some true -> { verdict; replay = Confirmed; disagreement = None }
    | Some false ->
      { verdict; replay = Refuted; disagreement = Some Witness_refuted }
    | None -> { verdict; replay = Not_replayable; disagreement = None })
  | Checker.Unknown _ as verdict ->
    { verdict; replay = No_witness; disagreement = None }
