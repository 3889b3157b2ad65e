(* Figures 1-2: Duato's incoherent example, reconstructed and re-derived.

   The paper's claims, verified mechanically here:
   - the algorithm is not prefix-closed (qB2 usable by n3-bound packets
     only, yet it lies on a path a packet from n2 to n1 could never take);
   - the BWG contains self-loop True Cycles qA1 -> qA1 and qH1 -> qH1,
     each realized by ONE packet that occupies the channel plus qB2 and
     waits on its own buffer (the paper's n = 1 deadlock);
   - the two-packet cycle qA1 -> qH1 -> qA1 is a False Resource Cycle: both
     realizations would need qB2 simultaneously. *)

open Dfr_network
open Dfr_routing
open Dfr_core

let check = Alcotest.check
let net = Incoherent_example.network ()
let algo = Incoherent_example.algo
let space = State_space.build net algo
let bwg = Bwg.build space
let qa1 = Incoherent_example.q_a1 net
let qh1 = Incoherent_example.q_h1 net
let qb1 = Incoherent_example.q_b1 net
let qb2 = Incoherent_example.q_b2 net
let qc1 = Incoherent_example.q_c1 net
let qf1 = Incoherent_example.q_f1 net
let n1 = Incoherent_example.n1
let n2 = Incoherent_example.n2
let n3 = Incoherent_example.n3

let test_network_shape () =
  check Alcotest.int "3 nodes" 3 (Net.num_nodes net);
  check Alcotest.int "6 channels + 6 endpoints" 12 (Net.num_buffers net);
  check Alcotest.bool "distinct parallel channels" true (qa1 <> qh1)

let test_route_facts () =
  (* minimal routing plus the qB2 exception *)
  let at_n2_for_n3 =
    algo.Algo.route net (Net.buffer net (Buf.id (Net.injection net n2))) ~dest:n3
  in
  check Alcotest.bool "qB2 usable toward n3" true (List.mem qb2 at_n2_for_n3);
  check Alcotest.bool "qC1 usable toward n3" true (List.mem qc1 at_n2_for_n3);
  let at_n2_for_n1 =
    algo.Algo.route net (Net.buffer net (Buf.id (Net.injection net n2))) ~dest:n1
  in
  check (Alcotest.list Alcotest.int) "only qB1 toward n1" [ qb1 ] at_n2_for_n1

let test_qb2_never_waited_on () =
  (* the paper's motivating distinction: qB2 may be used but never waited
     on, so no BWG edge targets it *)
  State_space.iter_reachable space (fun ~buf ~dest ->
      if List.mem qb2 (Slice_lists.waits space ~buf ~dest) then
        Alcotest.fail "qB2 appears in a waiting set");
  check Alcotest.bool "no BWG edge into qB2" true
    (List.for_all
       (fun (_, w) -> w <> qb2)
       (Dfr_graph.Digraph.edges (Bwg.graph bwg)))

let test_not_prefix_closed () =
  (* a packet from n2 to n3 can reach n1 through qB2, but a packet from n2
     to n1 cannot use qB2 *)
  check Alcotest.bool "qB2 reachable with dest n3" true
    (State_space.is_reachable space ~buf:qb2 ~dest:n3);
  check Alcotest.bool "qB2 unreachable with dest n1" false
    (State_space.is_reachable space ~buf:qb2 ~dest:n1)

let test_bwg_has_published_edges () =
  let g = Bwg.graph bwg in
  let edge a b = Dfr_graph.Digraph.mem_edge g a b in
  check Alcotest.bool "qA1 self loop" true (edge qa1 qa1);
  check Alcotest.bool "qH1 self loop" true (edge qh1 qh1);
  check Alcotest.bool "qA1 -> qH1" true (edge qa1 qh1);
  check Alcotest.bool "qH1 -> qA1" true (edge qh1 qa1);
  check Alcotest.bool "qB2 -> qA1" true (edge qb2 qa1);
  check Alcotest.bool "qB2 -> qH1" true (edge qb2 qh1);
  (* no waiting dependencies among the transit buffers beyond the figure *)
  check Alcotest.bool "no qC1 cycle participation" true
    (not (edge qc1 qa1) && not (edge qc1 qh1));
  check Alcotest.bool "qF1 only waits on qB1" true
    (edge qf1 qb1 && not (edge qf1 qc1))

let test_cycle_inventory () =
  let cycles, exhaustive = Bwg.cycles bwg in
  check Alcotest.bool "exhaustive" true exhaustive;
  let sorted_cycles = List.map (List.sort compare) cycles in
  check Alcotest.bool "qA1 self" true (List.mem [ qa1 ] sorted_cycles);
  check Alcotest.bool "qH1 self" true (List.mem [ qh1 ] sorted_cycles);
  check Alcotest.bool "two-cycle" true (List.mem (List.sort compare [ qa1; qh1 ]) sorted_cycles);
  check Alcotest.int "exactly the published three" 3 (List.length cycles)

let test_self_loops_true () =
  List.iter
    (fun q ->
      match Cycle_class.classify bwg [ q ] with
      | Cycle_class.True_cycle [ p ] ->
        check Alcotest.int "single packet" p.Cycle_class.waits_for q;
        check
          (Alcotest.list Alcotest.int)
          "occupies channel then qB2" [ q; qb2 ] p.Cycle_class.path;
        check Alcotest.int "destined n3" n3 p.Cycle_class.dest
      | _ -> Alcotest.fail "self loop must be a True Cycle with one packet")
    [ qa1; qh1 ]

let test_two_cycle_false_resource () =
  match Cycle_class.classify bwg [ qa1; qh1 ] with
  | Cycle_class.False_resource_cycle { exhaustive } ->
    check Alcotest.bool "exhaustively refuted" true exhaustive
  | Cycle_class.True_cycle _ ->
    Alcotest.fail "the two-packet cycle needs qB2 twice: False Resource Cycle"

let test_checker_verdict () =
  match Checker.verdict net algo with
  | Checker.Deadlock_possible (Checker.True_cycle { cycle; packets }) ->
    check Alcotest.int "self loop" 1 (List.length cycle);
    check Alcotest.int "one packet" 1 (List.length packets)
  | v -> Alcotest.failf "expected a True-Cycle deadlock, got %a" (Checker.pp_verdict net) v

let test_replay_confirms () =
  match Checker.verdict net algo with
  | Checker.Deadlock_possible failure ->
    check
      (Alcotest.option Alcotest.bool)
      "dynamic confirmation" (Some true)
      (Dfr_scenario.Scenario.replay net algo failure)
  | _ -> Alcotest.fail "deadlock expected"

let test_coherent_variant_is_free () =
  (* removing the incoherent exception (qB2 strictly minimal, i.e. only for
     n1-bound packets like qB1) yields a deadlock-free algorithm *)
  let coherent_route net' b ~dest =
    List.filter (fun q -> q <> Incoherent_example.q_b2 net')
      (algo.Algo.route net' b ~dest)
  in
  let coherent =
    Algo.make ~name:"coherent-variant" ~wait:Algo.Specific_wait ~route:coherent_route ()
  in
  match Checker.verdict net coherent with
  | Checker.Deadlock_free _ -> ()
  | v -> Alcotest.failf "coherent variant should be free, got %a" (Checker.pp_verdict net) v

let suite =
  [
    Alcotest.test_case "network shape (Figure 1)" `Quick test_network_shape;
    Alcotest.test_case "routing relation facts" `Quick test_route_facts;
    Alcotest.test_case "qB2 usable but never waited on" `Quick test_qb2_never_waited_on;
    Alcotest.test_case "not prefix-closed" `Quick test_not_prefix_closed;
    Alcotest.test_case "BWG edges (Figure 2)" `Quick test_bwg_has_published_edges;
    Alcotest.test_case "cycle inventory (Figure 2)" `Quick test_cycle_inventory;
    Alcotest.test_case "self loops are True Cycles" `Quick test_self_loops_true;
    Alcotest.test_case "two-cycle is a False Resource Cycle" `Quick
      test_two_cycle_false_resource;
    Alcotest.test_case "checker verdict" `Quick test_checker_verdict;
    Alcotest.test_case "simulation replay confirms" `Quick test_replay_confirms;
    Alcotest.test_case "coherent variant is deadlock-free" `Quick
      test_coherent_variant_is_free;
  ]
