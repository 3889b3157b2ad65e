(* The paper's experiments, regenerated (see DESIGN.md section 4 and
   EXPERIMENTS.md for the paper-vs-measured record).

   E1 fig3    degree of adaptiveness vs hypercube dimension (Figure 3)
   E2 fig12   Duato's incoherent example: BWG edges + cycle classification
   E3 thm4    Two-Buffer SAF mesh: Theorem 3 proof + stress simulation
   E4 thm5    EFA: Theorem 1 proof across cube sizes, with timings
   E5 thm6    relaxed EFA: deadlock witness, replay, stress simulation
   E6 matrix  proof-technique comparison across the whole catalogue
   E7 perf    latency/throughput sweep, e-cube vs Duato vs EFA *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_sim
module Mono = Dfr_util.Monotime

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let timed f =
  let t0 = Mono.now () in
  let r = f () in
  (r, Mono.now () -. t0)

let fmt_mean_latency s =
  match Stats.mean_latency s with
  | Some m -> Printf.sprintf "%.1f" m
  | None -> "-"

(* ------------------------------------------------------------------ E1 *)

let fig3 () =
  section "E1 (Figure 3): degree of adaptiveness, buffer-level paths";
  let algos = [ "ecube"; "duato"; "efa" ] in
  let max_n = 12 in
  let sweeps =
    List.map
      (fun a ->
        match Dfr_adaptiveness.Hypercube_adaptiveness.rule_of_name a with
        | Some r -> (a, Dfr_adaptiveness.Hypercube_adaptiveness.sweep r ~max_n)
        | None -> assert false)
      algos
  in
  Printf.printf "%-10s" "dim";
  List.iter (fun (a, _) -> Printf.printf " %10s" a) sweeps;
  print_newline ();
  for n = 2 to max_n do
    Printf.printf "%-10d" n;
    List.iter (fun (_, s) -> Printf.printf " %9.2f%%" (100.0 *. s.(n))) sweeps;
    print_newline ()
  done;
  let get name = List.assoc name sweeps in
  Printf.printf
    "paper anchors: 12-D duato ~16%% (measured %.1f%%), efa >50%% (measured %.1f%%)\n"
    (100.0 *. (get "duato").(12))
    (100.0 *. (get "efa").(12))

(* ------------------------------------------------------------------ E2 *)

let fig12 () =
  section "E2 (Figures 1-2): Duato's incoherent example";
  let net = Incoherent_example.network () in
  let algo = Incoherent_example.algo in
  let space = State_space.build net algo in
  let bwg = Bwg.build space in
  let g = Bwg.graph bwg in
  Printf.printf "BWG edges among transit buffers:\n";
  Dfr_graph.Digraph.iter_edges
    (fun q w ->
      if Buf.is_transit (Net.buffer net q) then
        Printf.printf "  %s -> %s\n" (Net.describe_buffer net q)
          (Net.describe_buffer net w))
    g;
  let cycles, _ = Bwg.cycles bwg in
  Printf.printf "cycles and classification:\n";
  List.iter
    (fun c ->
      let names = String.concat " -> " (List.map (Net.describe_buffer net) c) in
      match Cycle_class.classify bwg c with
      | Cycle_class.True_cycle packets ->
        Printf.printf "  [TRUE ] %s\n" names;
        List.iter
          (fun p -> Format.printf "          %a@." (Cycle_class.pp_packet net) p)
          packets
      | Cycle_class.False_resource_cycle { exhaustive } ->
        Printf.printf "  [FALSE] %s%s\n" names
          (if exhaustive then " (exhaustively refuted)" else " (capped)"))
    cycles;
  Format.printf "checker: %a@." (Checker.pp_verdict net) (Checker.verdict net algo)

(* ------------------------------------------------------------------ E3 *)

let thm4 () =
  section "E3 (Theorem 4): Two-Buffer store-and-forward mesh";
  List.iter
    (fun radices ->
      let topo = Topology.mesh radices in
      let net = Net.store_and_forward topo ~classes:2 in
      let (report : Checker.report), dt = timed (fun () -> Checker.check net Mesh_saf.two_buffer) in
      Format.printf "%-14s [%.3fs] %a@." (Topology.name topo) dt
        (Checker.pp_verdict net) report.Checker.verdict)
    [ [| 3; 3 |]; [| 4; 4 |]; [| 5; 5 |]; [| 3; 3; 3 |] ];
  let topo = Topology.mesh [| 4; 4 |] in
  let net = Net.store_and_forward topo ~classes:2 in
  let traffic = Traffic.batch topo ~pattern:Traffic.Uniform ~count:40 ~length:1 ~seed:11 in
  Format.printf "stress simulation (%d packets): %a@." (Traffic.count traffic)
    Drive.pp_outcome
    (Saf_sim.run net Mesh_saf.two_buffer traffic);
  let net1 = Net.store_and_forward topo ~classes:1 in
  Format.printf "single-buffer control: %a@." (Checker.pp_verdict net1)
    (Checker.verdict net1 Mesh_saf.single_buffer)

(* ------------------------------------------------------------------ E4 *)

let thm5 () =
  section "E4 (Theorem 5): Enhanced Fully Adaptive hypercube routing";
  List.iter
    (fun n ->
      let net = Net.wormhole (Topology.hypercube n) ~vcs:2 in
      let (report : Checker.report), dt = timed (fun () -> Checker.check net Hypercube_wormhole.efa) in
      Format.printf "%d-cube [%.3fs] %a@." n dt (Checker.pp_verdict net)
        report.Checker.verdict)
    [ 2; 3; 4; 5 ];
  let topo = Topology.hypercube 4 in
  let net = Net.wormhole topo ~vcs:2 in
  let traffic = Traffic.batch topo ~pattern:Traffic.Uniform ~count:12 ~length:10 ~seed:4 in
  Format.printf "stress simulation: %a@." Drive.pp_outcome
    (Wormhole_sim.run net Hypercube_wormhole.efa traffic)

(* ------------------------------------------------------------------ E5 *)

let thm6 () =
  section "E5 (Theorem 6): relaxing EFA's restriction deadlocks";
  let net = Net.wormhole (Topology.hypercube 2) ~vcs:2 in
  let space = State_space.build net Hypercube_wormhole.efa_relaxed in
  let bwg = Bwg.build space in
  (match
     (Cycle_class.shortest_first_scan ~obs:"checker" bwg).Cycle_class.scan
       .Cycle_class.found
   with
  | Some (cycle, packets) ->
    Printf.printf "True Cycle (the paper's four-channel cycle):\n  %s\n"
      (String.concat " -> " (List.map (Net.describe_buffer net) cycle));
    List.iter
      (fun p -> Format.printf "  %a@." (Cycle_class.pp_packet net) p)
      packets
  | None -> Printf.printf "unexpected: no True Cycle found\n");
  (match Checker.verdict net Hypercube_wormhole.efa_relaxed with
  | Checker.Deadlock_possible failure ->
    (match Dfr_scenario.Scenario.replay net Hypercube_wormhole.efa_relaxed failure with
    | Some true -> Printf.printf "replay: deadlock confirmed in the flit simulator\n"
    | Some false -> Printf.printf "replay: NOT confirmed\n"
    | None -> Printf.printf "replay: nothing to replay\n")
  | _ -> Printf.printf "unexpected verdict\n");
  let topo3 = Topology.hypercube 3 in
  let net3 = Net.wormhole topo3 ~vcs:2 in
  let traffic = Traffic.batch topo3 ~pattern:Traffic.Uniform ~count:40 ~length:24 ~seed:3 in
  Format.printf "natural stress traffic: %a@." Drive.pp_outcome
    (Wormhole_sim.run net3 Hypercube_wormhole.efa_relaxed traffic)

(* ------------------------------------------------------------------ E6 *)

let matrix () =
  section "E6: proof-technique comparison (verdict matrix)";
  Printf.printf "%-24s %-12s %-12s %-12s %s\n" "algorithm" "dally-seitz"
    "duato-cond" "bwg(paper)" "network";
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let space = State_space.build net e.Registry.algo in
      let ds = if Cdg.deadlock_free space then "certified" else "-" in
      let dc = if Duato_condition.deadlock_free space then "certified" else "-" in
      let bwg =
        match Checker.verdict net e.Registry.algo with
        | Checker.Deadlock_free _ -> "certified"
        | Checker.Deadlock_possible _ -> "deadlock"
        | Checker.Unknown _ -> "unknown"
      in
      Printf.printf "%-24s %-12s %-12s %-12s %s\n" e.Registry.name ds dc bwg
        (Net.name net))
    Registry.all

(* ------------------------------------------------------------------ E7 *)

let perf () =
  section "E7: latency/throughput sweep on a 4-cube (uniform traffic)";
  let topo = Topology.hypercube 4 in
  let net = Net.wormhole topo ~vcs:2 in
  let algos =
    [
      ("ecube", Hypercube_wormhole.ecube);
      ("duato", Hypercube_wormhole.duato);
      ("efa", Hypercube_wormhole.efa);
    ]
  in
  let rates = [ 0.02; 0.04; 0.06; 0.08; 0.10; 0.12 ] in
  Printf.printf "%-7s" "rate";
  List.iter (fun (n, _) -> Printf.printf " %11s" (n ^ " lat")) algos;
  List.iter (fun (n, _) -> Printf.printf " %11s" (n ^ " dlv")) algos;
  print_newline ();
  List.iter
    (fun rate ->
      let traffic =
        Traffic.generate topo ~pattern:Traffic.Uniform ~rate ~length:8
          ~horizon:1500 ~seed:17
      in
      let outcomes =
        List.map
          (fun (_, algo) ->
            Wormhole_sim.run
              ~config:{ Wormhole_sim.default_config with max_cycles = 12_000 }
              net algo traffic)
          algos
      in
      Printf.printf "%-7.2f" rate;
      List.iter
        (fun o ->
          let s = Drive.stats o in
          let marker =
            match o with
            | Drive.Deadlocked _ -> "!"
            | Drive.Timeout _ -> "~"
            | Drive.Completed _ -> " "
          in
          Printf.printf " %10s%s" (fmt_mean_latency s) marker)
        outcomes;
      let total = float_of_int (max 1 (Traffic.count traffic)) in
      List.iter
        (fun o ->
          let s = Drive.stats o in
          Printf.printf " %10.2f%%" (100.0 *. float_of_int s.Stats.delivered /. total))
        outcomes;
      print_newline ())
    rates;
  Printf.printf
    "(lat = mean latency of delivered packets; dlv = packets delivered;\n\
    \ '~' = still draining when the cycle budget ran out = saturated)\n"



(* ------------------------------------------------------------------ E9 *)

let ablations () =
  section "E9: ablations of the decision procedure";
  (* 1. closure off: the incoherent example is wrongly certified *)
  let net = Incoherent_example.network () in
  let space = State_space.build net Incoherent_example.algo in
  let full = Bwg.build space in
  let direct = Bwg.build ~indirect:false space in
  Printf.printf
    "wormhole closure: full BWG %s, direct-only BWG %s on the incoherent example\n"
    (if Dfr_graph.Traversal.is_acyclic (Bwg.graph full) then "acyclic (WRONG)"
     else "cyclic (correct)")
    (if Dfr_graph.Traversal.is_acyclic (Bwg.graph direct) then
       "acyclic -- closure off loses the deadlock"
     else "cyclic");
  (* 2. knot pre-check off: cost of deciding the controls by cycles alone *)
  let cube = Net.wormhole (Topology.hypercube 2) ~vcs:2 in
  let relaxed_space = State_space.build cube Hypercube_wormhole.efa_relaxed in
  let (knot, t_knot) = timed (fun () -> Deadlock_config.find relaxed_space) in
  let bwg = Bwg.build relaxed_space in
  let (cycles, t_cycles) = timed (fun () -> fst (Bwg.cycles bwg)) in
  let (_, t_classify) =
    timed (fun () ->
        Cycle_class.first_true_cycle bwg
          (Array.of_list
             (List.map Array.of_list
                (List.sort (fun a b -> compare (List.length a) (List.length b)) cycles))))
  in
  Printf.printf
    "knot pre-check on relaxed EFA (2-cube): %.3f ms and %s; without it:\n\
    \  enumerate %d cycles (%.1f ms) + classify (%.3f ms)\n"
    (1000.0 *. t_knot)
    (match knot with Some c -> Printf.sprintf "%d packets" (List.length c) | None -> "none")
    (List.length cycles) (1000.0 *. t_cycles) (1000.0 *. t_classify);
  (* 3. checker scaling with cube dimension *)
  Printf.printf "checker scaling (EFA, Theorem 1 path):\n";
  List.iter
    (fun n ->
      let net = Net.wormhole (Topology.hypercube n) ~vcs:2 in
      let (_, dt) = timed (fun () -> Checker.verdict net Hypercube_wormhole.efa) in
      let buffers = Net.num_buffers net in
      Printf.printf "  %d-cube: %4d buffers, %7.1f ms\n" n buffers (1000.0 *. dt))
    [ 2; 3; 4; 5; 6 ];
  (* 4. waiting-rule ablation: EFA waiting on every output still certifies,
     but through Theorem 3 instead of Theorem 1 *)
  let cube2 = Net.wormhole (Topology.hypercube 2) ~vcs:2 in
  let any_wait = Dfr_routing.Algo.wait_everywhere Hypercube_wormhole.efa in
  let (verdict, dt) = timed (fun () -> Checker.verdict cube2 any_wait) in
  Format.printf "wait-everywhere EFA (2-cube, %.1f ms): %a@." (1000.0 *. dt)
    (Checker.pp_verdict cube2) verdict



(* ------------------------------------------------------------------ E10 *)

let mesh_adaptiveness () =
  section "E10 (extension): degree of adaptiveness for mesh algorithms";
  let entries =
    [
      ("dimension-order", 1, Mesh_wormhole.dimension_order);
      ("west-first", 1, Mesh_wormhole.west_first);
      ("north-last", 1, Mesh_wormhole.north_last);
      ("negative-first", 1, Mesh_wormhole.negative_first);
      ("odd-even", 1, Mesh_wormhole.odd_even);
      ("double-y", 2, Mesh_wormhole.double_y);
      ("duato-mesh", 2, Mesh_wormhole.duato_mesh);
    ]
  in
  let sizes = [ 3; 4; 5; 6 ] in
  let rows = Dfr_adaptiveness.Mesh_adaptiveness.sweep_square entries ~sizes in
  Printf.printf "%-16s" "mesh";
  List.iter (fun k -> Printf.printf " %8dx%d" k k) sizes;
  print_newline ();
  List.iter
    (fun (name, values) ->
      Printf.printf "%-16s" name;
      List.iter (fun v -> Printf.printf " %9.2f%%" (100.0 *. v)) values;
      print_newline ())
    rows;
  Printf.printf
    "(buffer-level paths vs the all-channels baseline of the same network;\n\
    \ 2-VC algorithms are measured against a 2-VC denominator)\n"

(* ------------------------------------------------------------------ E7b *)

let perf_router () =
  section "E7b: the same sweep on the pipelined credit-based router";
  let topo = Topology.hypercube 4 in
  let net = Net.wormhole topo ~vcs:2 in
  let algos =
    [
      ("ecube", Hypercube_wormhole.ecube);
      ("duato", Hypercube_wormhole.duato);
      ("efa", Hypercube_wormhole.efa);
    ]
  in
  let rates = [ 0.02; 0.04; 0.06; 0.08 ] in
  Printf.printf "%-7s" "rate";
  List.iter (fun (n, _) -> Printf.printf " %11s" (n ^ " lat")) algos;
  print_newline ();
  List.iter
    (fun rate ->
      let traffic =
        Traffic.generate topo ~pattern:Traffic.Uniform ~rate ~length:8
          ~horizon:1200 ~seed:17
      in
      Printf.printf "%-7.2f" rate;
      List.iter
        (fun (_, algo) ->
          let o =
            Router_sim.run
              ~config:{ Router_sim.default_config with max_cycles = 20_000 }
              net algo traffic
          in
          let s = Drive.stats o in
          Printf.printf " %10s%s" (fmt_mean_latency s)
            (match o with
            | Drive.Deadlocked _ -> "!"
            | Drive.Timeout _ -> "~"
            | Drive.Completed _ -> " "))
        algos;
      print_newline ())
    rates;
  Printf.printf
    "(pipelined RC/VA/SA/ST stages and credit return add a constant factor\n\
    \ over E7's flit model; the ordering between algorithms must agree)\n"

(* ------------------------------------------------------------------ E11 *)

let turn_tables () =
  section "E11 (extension): permitted-turn matrices of the 2-D mesh algorithms";
  let net1 = Net.wormhole (Topology.mesh [| 5; 5 |]) ~vcs:1 in
  let net2 = Net.wormhole (Topology.mesh [| 5; 5 |]) ~vcs:2 in
  let turns = Turns.all_turns ~dims:2 in
  Printf.printf "%-16s" "algorithm";
  List.iter
    (fun t -> Printf.printf " %7s" (Format.asprintf "%a" Turns.pp_turn t))
    turns;
  print_newline ();
  List.iter
    (fun (name, net, algo) ->
      let space = State_space.build net algo in
      Printf.printf "%-16s" name;
      List.iter
        (fun t ->
          Printf.printf " %7s" (if Turns.permitted space t then "yes" else "-"))
        turns;
      print_newline ())
    [
      ("dimension-order", net1, Mesh_wormhole.dimension_order);
      ("west-first", net1, Mesh_wormhole.west_first);
      ("north-last", net1, Mesh_wormhole.north_last);
      ("negative-first", net1, Mesh_wormhole.negative_first);
      ("odd-even", net1, Mesh_wormhole.odd_even);
      ("double-y", net2, Mesh_wormhole.double_y);
      ("unrestricted", net1, Mesh_wormhole.unrestricted);
    ];
  Printf.printf
    "(0+ = east, 0- = west, 1+ = north, 1- = south; a '-' is a turn no\n\
    \ reachable packet ever takes.  Each cycle sense needs all four of its\n\
    \ turns, so the '-' entries are what breaks the cycles.)\n"

(* ------------------------------------------------------------------ E12 *)

let parallel_bwg () =
  section "E12 (extension): multicore BWG construction (OCaml 5 domains)";
  let cores = max 2 (Domain.recommended_domain_count ()) in
  Printf.printf
    "recommended domain count on this machine: %d (benchmarking with %d;\n\
    \ on a single-core container this measures overhead, not speedup)\n"
    (Domain.recommended_domain_count ())
    cores;
  List.iter
    (fun n ->
      let net = Net.wormhole (Topology.hypercube n) ~vcs:2 in
      let space = State_space.build net Hypercube_wormhole.efa in
      let (_, t1) = timed (fun () -> Bwg.build space) in
      let (_, tp) = timed (fun () -> Bwg.build ~domains:cores space) in
      Printf.printf "%d-cube: serial %7.1f ms, %d domains %7.1f ms, speedup %.2fx\n"
        n (1000.0 *. t1) cores (1000.0 *. tp)
        (t1 /. tp))
    [ 4; 5; 6 ]

let all () =
  fig3 ();
  fig12 ();
  thm4 ();
  thm5 ();
  thm6 ();
  matrix ();
  perf ();
  perf_router ();
  mesh_adaptiveness ();
  turn_tables ();
  parallel_bwg ();
  ablations ()
