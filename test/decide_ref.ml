(* The reference for [Checker.decide]'s multi-wait branch: the eager scan
   the checker ran before its multi-wait scan streamed, kept here unchanged
   apart from qualified names.  Once the BWG is wait-connected, cyclic
   and knot-free, it stores every cycle of the full BWG up to the caps,
   classifies them shortest first, and only at a True Cycle tries the
   hint and then the search, whose [No_reduction] carries the shortest
   True Cycle.  Its reports count the stored cycles in [bwg_cycles] on
   every such verdict, as the checker then did (a Theorem-3 proof also
   repeated that count as [full_bwg_cycles]).  Every other verdict is
   [Checker.decide]'s. *)

open Dfr_core
open Dfr_routing

let eager_any_wait ?cycle_limits space bwg =
  let { Cycle_class.enumerated; cycles_exhaustive; scan } =
    Cycle_class.shortest_first_scan ?cycle_limits ~obs:"reference" bwg
  in
  let finish verdict =
    { Checker.verdict; space; bwg; bwg_cycles = Some enumerated }
  in
  match scan.Cycle_class.found with
  | Some (cycle, packets) -> (
    let session = Bwg.session bwg in
    let handed_back removed verdict =
      List.iter
        (fun { Reduction.head; dest; target } ->
          Bwg.Session.restore session ~buf:head ~dest target)
        removed;
      ignore (Bwg.Session.bwg session : Bwg.t);
      finish verdict
    in
    let reduced via_hint removed =
      handed_back removed (Checker.Deadlock_free (Checker.Reduced_bwg { via_hint; removed }))
    in
    match Reduction.verify_hint ?cycle_limits session with
    | Some (Reduction.Reduced removed) -> reduced true removed
    | _ -> (
      match fst (Reduction.search ?cycle_limits session) with
      | Reduction.Reduced removed -> reduced false removed
      | Reduction.Impossible ->
        handed_back [] (Checker.Deadlock_possible (Checker.No_reduction { cycle; packets }))
      | Reduction.Gave_up reason -> handed_back [] (Checker.Unknown reason)))
  | None -> (
    match
      Cycle_class.inconclusive ~cycles_exhaustive ~uncertain:scan.Cycle_class.uncertain
    with
    | Some reason -> finish (Checker.Unknown reason)
    | None ->
      finish
        (Checker.Deadlock_free
           (Checker.No_true_cycles { cycles_examined = scan.Cycle_class.classified })))

(* [Checker.check] with the eager multi-wait branch *)
let check ?cycle_limits net algo =
  let space = State_space.build net algo in
  let bwg = Bwg.build space in
  let stuck = State_space.stuck_states space in
  let unconnected = if stuck = [] then Bwg.unconnected_states bwg else [] in
  if
    algo.Algo.wait = Algo.Specific_wait
    || stuck <> [] || unconnected <> [] || Bwg.is_acyclic bwg
    || Option.is_some (Deadlock_config.find space)
  then Checker.decide ?cycle_limits ~stuck ~unconnected space bwg
  else eager_any_wait ?cycle_limits space bwg
