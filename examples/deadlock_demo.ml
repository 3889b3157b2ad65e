(* Deadlock demonstration: Theorem 6's relaxation of the Enhanced Fully
   Adaptive algorithm, three ways.

   1. the checker derives a deadlock configuration symbolically;
   2. the configuration is seated in the flit-level simulator, which
      confirms the network cannot drain it;
   3. ordinary random traffic is pushed through the same network until the
      deadlock emerges naturally, and the simulator reports the packet
      wait-for cycle it died with.

   Run with: dune exec examples/deadlock_demo.exe *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim

let () =
  let net = Net.wormhole (Topology.hypercube 3) ~vcs:2 in
  let algo = Hypercube_wormhole.efa_relaxed in
  print_endline "--- 1. symbolic verdict -------------------------------------";
  let report = Checker.check net algo in
  Certificate.print net algo report;
  match report.Checker.verdict with
  | Checker.Deadlock_possible failure ->
    print_endline "\n--- 2. replaying the configuration --------------------------";
    (match Dfr_scenario.Scenario.replay net algo failure with
    | Some true ->
      print_endline "the seated configuration is dynamically stuck: deadlock confirmed"
    | Some false -> print_endline "unexpectedly drained!"
    | None -> print_endline "nothing to replay");
    print_endline "\n--- 3. natural stress traffic --------------------------------";
    let topo = Net.topology_exn net in
    let traffic =
      Traffic.batch topo ~pattern:Traffic.Uniform ~count:40 ~length:24 ~seed:3
    in
    (match Wormhole_sim.run net algo traffic with
    | Drive.Deadlocked { cycle; in_flight; wait_for = Some wait_for; _ } ->
      Printf.printf
        "random traffic deadlocked at cycle %d with %d packets in flight\n" cycle
        in_flight;
      Printf.printf "wait-for edges at the stall (packet -> packet it blocks on):\n";
      List.iteri
        (fun i (p, q) -> if i < 12 then Printf.printf "  #%d -> #%d\n" p q)
        wait_for;
      if List.length wait_for > 12 then
        Printf.printf "  ... (%d edges total)\n" (List.length wait_for)
    | o -> Format.printf "no deadlock this time: %a@." Drive.pp_outcome o);
    print_endline "\n--- for contrast: unrelaxed EFA under the same load ----------";
    let traffic =
      Traffic.batch topo ~pattern:Traffic.Uniform ~count:40 ~length:24 ~seed:3
    in
    Format.printf "%a@." Drive.pp_outcome
      (Wormhole_sim.run net Hypercube_wormhole.efa traffic)
  | _ -> print_endline "unexpected verdict"
