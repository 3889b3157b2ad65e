(* The scenario subsystem: fault-plan parsing, degradation, outcome
   classification, latency bounds — and the acceptance bar, which is byte
   equality: a campaign's JSON must not depend on the checking path
   (one incremental session vs a cold check per fault, including the
   node-kill rebuild fallback) or on the domain count. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core
module Fault = Dfr_scenario.Fault
module Degrade = Dfr_scenario.Degrade
module Scenario = Dfr_scenario.Scenario
module Latency = Dfr_scenario.Latency
module Traffic = Dfr_sim.Traffic
module Wormhole_sim = Dfr_sim.Wormhole_sim
module Drive = Dfr_sim.Drive
module Stats = Dfr_sim.Stats
module J = Dfr_util.Json

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let instance name topo =
  let e =
    match Registry.find name with
    | Some e -> e
    | None -> Alcotest.fail ("unregistered: " ^ name)
  in
  let t =
    match Topology.of_string topo with
    | Ok t -> Some t
    | Error m -> Alcotest.fail m
  in
  (Registry.network_for e t, e.Registry.algo)

let run ?domains ?cold ~mode net algo plan =
  match Scenario.campaign ?domains ?cold ~mode net algo plan with
  | Ok c -> c
  | Error m -> Alcotest.fail ("campaign: " ^ m)

let bytes c = J.to_string (Scenario.campaign_to_json c)

(* ---------------- plan parsing ---------------- *)

let test_plan_parse () =
  let txt =
    "# comment\n\
     plan \"demo\"\n\
     seed 9\n\
     kill link 0 -> 1 vc 1\n\
     at 5 kill buffer 3\n\
     kill node 2\n\
     storm links 4 seed 11\n"
  in
  match Fault.parse txt with
  | Error m -> Alcotest.fail m
  | Ok p ->
    check Alcotest.(option string) "name" (Some "demo") p.Fault.name;
    check Alcotest.int "seed" 9 p.Fault.seed;
    check Alcotest.(list int) "default ticks follow the previous step"
      [ 0; 5; 6; 7 ]
      (List.map (fun (s : Fault.step) -> s.Fault.at) p.Fault.steps);
    (match List.map (fun (s : Fault.step) -> s.Fault.fault) p.Fault.steps with
    | [
     Fault.Kill_link { src = 0; dst = 1; vc = Some 1 };
     Fault.Kill_buffer 3;
     Fault.Kill_node 2;
     Fault.Storm { count = 4; seed = Some 11 };
    ] ->
      ()
    | _ -> Alcotest.fail "parsed faults differ")

let test_plan_parse_errors () =
  let expect_error_line n txt =
    match Fault.parse txt with
    | Ok _ -> Alcotest.failf "accepted %S" txt
    | Error m ->
      let tag = Printf.sprintf "line %d" n in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      check Alcotest.bool
        (Printf.sprintf "%S names %s" m tag)
        true (contains m tag)
  in
  expect_error_line 1 "bogus directive\n";
  expect_error_line 2 "seed 1\nkill link 0 1\n";
  expect_error_line 3 "plan \"x\"\nseed 2\nstorm links zero\n"

(* runtest's cwd is _build/default/test; a direct exec runs from the root *)
let plans_dir =
  let from_test = Filename.concat ".." "examples/plans" in
  if Sys.file_exists from_test then from_test else "examples/plans"

let test_plan_corpus () =
  let plans = Sys.readdir plans_dir in
  Array.sort compare plans;
  let loaded =
    Array.to_list plans
    |> List.filter (fun f -> Filename.check_suffix f ".plan")
    |> List.map (fun f ->
           match Fault.load_file (Filename.concat plans_dir f) with
           | Ok p -> Option.value p.Fault.name ~default:"<unnamed>"
           | Error m -> Alcotest.fail (f ^ ": " ^ m))
  in
  check
    Alcotest.(list string)
    "golden corpus parses"
    [ "dragonfly-storm"; "mesh-link-cut"; "node-failure" ]
    loaded

let test_storm_expand () =
  let net, _ = instance "dimension-order" "mesh:3x3" in
  let plan =
    {
      Fault.name = None;
      seed = 5;
      steps = [ { Fault.at = 0; fault = Fault.Storm { count = 6; seed = None } } ];
    }
  in
  let expand () =
    match Fault.expand plan net with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let a = expand () and b = expand () in
  check Alcotest.bool "expansion is deterministic" true (a = b);
  check Alcotest.int "count respected" 6 (List.length a);
  let ids =
    List.map
      (fun (s : Fault.step) ->
        match s.Fault.fault with
        | Fault.Kill_buffer b -> b
        | _ -> Alcotest.fail "storm expands to buffer kills")
      a
  in
  check Alcotest.int "distinct buffers" 6
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun b ->
      check Alcotest.bool "kills transit buffers only" true
        (Buf.is_transit (Net.buffer net b)))
    ids;
  (match
     Fault.expand
       { plan with
         Fault.steps =
           [ { Fault.at = 0; fault = Fault.Storm { count = 10_000; seed = None } } ]
       }
       net
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized storm accepted")

(* ---------------- campaign byte-identity ---------------- *)

let link_plan =
  {
    Fault.name = Some "links";
    seed = 1;
    steps =
      [
        { Fault.at = 0; fault = Fault.Kill_link { src = 0; dst = 1; vc = None } };
        { Fault.at = 1; fault = Fault.Kill_link { src = 4; dst = 5; vc = None } };
      ];
  }

(* Theorem-3 inputs: the hinted two-buffer, whose baseline checks the
   hint on the incremental session (no node-buffer kill keeps it off the
   fast path), and a hintless wormhole spec whose storm steps search on
   it *)
let node_buffer_plan =
  {
    Fault.name = Some "node buffers";
    seed = 1;
    steps =
      List.mapi (fun at b -> { Fault.at; fault = Fault.Kill_buffer b }) [ 33; 40; 55 ];
  }

let storm_plan =
  {
    Fault.name = Some "storm";
    seed = 42;
    steps = [ { Fault.at = 0; fault = Fault.Storm { count = 4; seed = None } } ];
  }

let duato_mesh_any () =
  let dir = if Sys.file_exists "golden" then "golden" else "test/golden" in
  match Dfr_spec.Spec.load_file (Filename.concat dir "consumers/duato-mesh-any@mesh_2x3.dfr") with
  | Ok spec -> (spec.Dfr_spec.Spec.net, spec.Dfr_spec.Spec.algo)
  | Error e -> Alcotest.fail (Dfr_spec.Spec.error_to_string e)

let test_campaign_bytes_across_paths () =
  List.iter
    (fun (label, (net, algo), plan) ->
      List.iter
        (fun mode ->
          let base = bytes (run ~mode net algo plan) in
          check Alcotest.string (label ^ ": cold = incremental") base
            (bytes (run ~cold:true ~mode net algo plan));
          (* satellite: the stuck/wait-connectivity scans chunk over the
             domain pool; the merged lists — hence the bytes — must not move *)
          check Alcotest.string (label ^ ": domains 4 = domains 1") base
            (bytes (run ~domains:4 ~mode net algo plan)))
        [ `Sweep; `Sequence ])
    [
      ("dimension-order", instance "dimension-order" "mesh:3x3", link_plan);
      ("two-buffer", instance "two-buffer" "mesh:4x4", node_buffer_plan);
      ("duato-mesh-any", duato_mesh_any (), storm_plan);
    ]

(* Storm sweeps whose steps keep a cyclic BWG', so the incremental side
   decides past the acyclicity test on the session's live BWG: knots and
   not-wait-connected states on efa-relaxed, knots and stuck states on
   the single-VC dragonfly.  Each must print the cold campaign's bytes,
   and some step must be a knot. *)
let test_campaign_live_cyclic () =
  let plan =
    match Fault.parse "plan \"storm\"\nseed 42\nstorm links 6\n" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (name, topo) ->
      let net, algo = instance name topo in
      let c = run ~mode:`Sweep net algo plan in
      check Alcotest.bool (name ^ ": some step is a knot") true
        (List.exists
           (fun o ->
             match o.Scenario.classification with
             | Scenario.Deadlocked { kind = "knot"; _ } -> true
             | _ -> false)
           c.Scenario.outcomes);
      check Alcotest.string (name ^ ": cold = incremental") (bytes c)
        (bytes (run ~cold:true ~mode:`Sweep net algo plan)))
    [ ("efa-relaxed", "hypercube:4"); ("dragonfly-minimal-1vc", "dragonfly:4x2x9") ]

let test_campaign_modes_differ () =
  let net, algo = instance "dimension-order" "mesh:3x3" in
  let sweep = run ~mode:`Sweep net algo link_plan in
  let seq = run ~mode:`Sequence net algo link_plan in
  (* sweep checks each fault alone; the sequence accumulates them *)
  check Alcotest.int "sweep outcomes" 2 (List.length sweep.Scenario.outcomes);
  check Alcotest.int "sequence outcomes" 2 (List.length seq.Scenario.outcomes);
  let killed o = List.length o.Scenario.killed in
  let last c = List.nth c.Scenario.outcomes 1 in
  check Alcotest.int "sweep's last outcome kills one link" 1
    (killed (last sweep));
  check Alcotest.int "sequence's last outcome carries both" 2
    (killed (last seq))

(* ---------------- classification ---------------- *)

let test_classify_disconnection () =
  let net, algo = instance "dimension-order" "mesh:3x3" in
  let plan =
    {
      Fault.name = None;
      seed = 1;
      steps =
        [ { Fault.at = 0; fault = Fault.Kill_link { src = 0; dst = 1; vc = None } } ];
    }
  in
  let c = run ~mode:`Sweep net algo plan in
  check Alcotest.int "baseline free" 0 c.Scenario.baseline_exit;
  match c.Scenario.outcomes with
  | [ o ] -> (
    check Alcotest.int "fault deadlocks" 1 o.Scenario.exit_code;
    match o.Scenario.classification with
    | Scenario.Disconnected pairs ->
      check Alcotest.bool "some destination cut" true (pairs <> []);
      (* XY routing: node 0's only route to node 1 is the killed link *)
      let srcs_for_1 = try List.assoc 1 pairs with Not_found -> [] in
      check Alcotest.bool "dest 1 lost source 0" true (List.mem 0 srcs_for_1);
      List.iter
        (fun (dest, srcs) ->
          check Alcotest.bool "pairs are populated" true
            (srcs <> [] && dest >= 0 && dest < 9))
        pairs
    | _ -> Alcotest.fail "expected a Disconnected classification")
  | _ -> Alcotest.fail "one outcome expected"

let test_classify_node_kill () =
  let net, algo = instance "dimension-order" "mesh:3x3" in
  let plan =
    {
      Fault.name = None;
      seed = 1;
      steps = [ { Fault.at = 0; fault = Fault.Kill_node 4 } ];
    }
  in
  let c = run ~mode:`Sweep net algo plan in
  (match c.Scenario.outcomes with
  | [ o ] -> (
    match o.Scenario.classification with
    | Scenario.Disconnected pairs ->
      (* the dead node is unreachable for everyone; the centre of a 3x3
         mesh also carries every cross route *)
      let srcs_for_4 = try List.assoc 4 pairs with Not_found -> [] in
      check Alcotest.int "dead node cut from all 8 others" 8
        (List.length srcs_for_4)
    | _ -> Alcotest.fail "expected a Disconnected classification")
  | _ -> Alcotest.fail "one outcome expected");
  (* the rebuild fallback must agree with a cold campaign byte-for-byte *)
  check Alcotest.string "rebuilt = cold" (bytes c)
    (bytes (run ~cold:true ~mode:`Sweep net algo plan))

(* ---------------- the satellite-4 property ---------------- *)

(* Random plans mixing every fault kind (including node kills, which
   abandon the session for a cold rebuild) re-check byte-identically to
   cold checks of the degraded instance, in both modes. *)
let prop_campaign_bytes =
  QCheck.Test.make ~name:"fault campaigns are bit-for-bit cold" ~count:15
    QCheck.small_nat (fun salt ->
      let net, algo = instance "dimension-order" "mesh:3x3" in
      let rng = Dfr_util.Prng.create (salt * 7919 + 13) in
      let channels =
        Array.of_list
          (List.filter
             (fun b -> Buf.is_transit b)
             (Array.to_list (Net.buffers net)))
      in
      let random_fault () =
        match Dfr_util.Prng.int rng 4 with
        | 0 ->
          let b = channels.(Dfr_util.Prng.int rng (Array.length channels)) in
          Fault.Kill_link
            { src = Buf.source_node b; dst = Buf.head_node b; vc = None }
        | 1 ->
          Fault.Kill_buffer
            (Buf.id channels.(Dfr_util.Prng.int rng (Array.length channels)))
        | 2 -> Fault.Kill_node (Dfr_util.Prng.int rng (Net.num_nodes net))
        | _ -> Fault.Storm { count = 1 + Dfr_util.Prng.int rng 3; seed = None }
      in
      let steps =
        List.init
          (1 + Dfr_util.Prng.int rng 3)
          (fun i -> { Fault.at = i; fault = random_fault () })
      in
      let plan = { Fault.name = None; seed = salt + 1; steps } in
      List.for_all
        (fun mode ->
          bytes (run ~mode net algo plan)
          = bytes (run ~cold:true ~mode net algo plan))
        [ `Sweep; `Sequence ])

(* ---------------- latency bounds ---------------- *)

let test_latency_sound () =
  let net, algo = instance "dimension-order" "mesh:3x3" in
  let topo =
    match Net.topology net with Some t -> t | None -> Alcotest.fail "topology"
  in
  let traffic =
    Traffic.bursty topo ~pattern:Traffic.Uniform ~burst:3 ~rate:0.05 ~length:3
      ~horizon:200 ~seed:5
  in
  let report = Checker.check net algo in
  let b = Latency.analyze report.Checker.space report.Checker.bwg traffic in
  check Alcotest.bool "bounds defined" true b.Latency.defined;
  check Alcotest.int "every packet bounded" (Traffic.count traffic)
    b.Latency.packets;
  check Alcotest.bool "percentiles ordered" true
    (b.Latency.p50 <= b.Latency.p99 && b.Latency.p99 <= b.Latency.p100);
  match Wormhole_sim.run net algo traffic with
  | Drive.Completed stats ->
    let observed = Stats.percentile_latency stats 1.0 in
    check Alcotest.bool "analytic p100 dominates observed p100" true
      (b.Latency.p100 >= observed)
  | _ -> Alcotest.fail "XY mesh workload must drain"

let test_latency_undefined () =
  let net, algo = instance "dimension-order" "mesh:3x3" in
  let report = Checker.check net algo in
  let self =
    [ { Traffic.src = 0; dst = 0; length = 2; inject_at = 0; mode = Traffic.Adaptive } ]
  in
  let b = Latency.analyze report.Checker.space report.Checker.bwg self in
  check Alcotest.bool "src = dst is undefined" false b.Latency.defined;
  check Alcotest.bool "with a reason" true (b.Latency.reason <> None);
  let empty = Latency.analyze report.Checker.space report.Checker.bwg [] in
  check Alcotest.bool "empty workload is defined" true empty.Latency.defined;
  check Alcotest.int "zero packets" 0 empty.Latency.packets

(* ---------------- adversarial generators ---------------- *)

let test_traffic_validation () =
  let _, _ = instance "dimension-order" "mesh:3x3" in
  let topo =
    match Topology.of_string "mesh:3x3" with Ok t -> t | Error m -> Alcotest.fail m
  in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check Alcotest.bool "storm with no destinations" true
    (raises (fun () ->
         Traffic.storm topo ~dests:[] ~rate:0.1 ~length:2 ~horizon:10 ~seed:1));
  check Alcotest.bool "storm aimed outside the network" true
    (raises (fun () ->
         Traffic.storm topo ~dests:[ 99 ] ~rate:0.1 ~length:2 ~horizon:10 ~seed:1));
  check Alcotest.bool "zero-length packets" true
    (raises (fun () ->
         Traffic.bursty topo ~pattern:Traffic.Uniform ~burst:2 ~rate:0.1
           ~length:0 ~horizon:10 ~seed:1));
  check Alcotest.bool "zero-depth burst" true
    (raises (fun () ->
         Traffic.bursty topo ~pattern:Traffic.Uniform ~burst:0 ~rate:0.1
           ~length:2 ~horizon:10 ~seed:1))

let test_seeking_traffic () =
  let net, algo = instance "efa-relaxed" "hypercube:2" in
  let report = Checker.check net algo in
  match report.Checker.verdict with
  | Checker.Deadlock_possible failure -> (
    match Scenario.seeking_traffic report.Checker.space ~length:3 failure with
    | Some packets ->
      check Alcotest.bool "non-empty workload" true (packets <> []);
      List.iter
        (fun (p : Traffic.packet) ->
          match p.Traffic.mode with
          | Traffic.Scripted (b :: _) ->
            check Alcotest.int "chain starts at the packet's source"
              p.Traffic.src
              (Buf.source_node (Net.buffer net b))
          | _ -> Alcotest.fail "seeking packets are scripted")
        packets
    | None -> Alcotest.fail "a true-cycle witness must yield traffic")
  | _ -> Alcotest.fail "efa-relaxed must deadlock"

let suite =
  [
    Alcotest.test_case "plan: directives, ticks and seeds parse" `Quick
      test_plan_parse;
    Alcotest.test_case "plan: errors carry line numbers" `Quick
      test_plan_parse_errors;
    Alcotest.test_case "plan: the golden corpus parses" `Quick test_plan_corpus;
    Alcotest.test_case "plan: storm expansion is seeded and distinct" `Quick
      test_storm_expand;
    Alcotest.test_case "campaign: bytes survive cold and domain changes"
      `Quick test_campaign_bytes_across_paths;
    Alcotest.test_case "campaign: sweep isolates, sequence accumulates" `Quick
      test_campaign_modes_differ;
    Alcotest.test_case "classify: a severed XY link reports its sources"
      `Quick test_classify_disconnection;
    Alcotest.test_case "classify: a node kill rebuilds and reports" `Quick
      test_classify_node_kill;
    qtest prop_campaign_bytes;
    Alcotest.test_case "latency: analytic p100 dominates the simulator" `Quick
      test_latency_sound;
    Alcotest.test_case "latency: degenerate workloads refuse to guess" `Quick
      test_latency_undefined;
    Alcotest.test_case "traffic: generators reject unusable arguments" `Quick
      test_traffic_validation;
    Alcotest.test_case "traffic: witness-seeking workloads are scripted"
      `Quick test_seeking_traffic;
    Alcotest.test_case "campaign: cyclic storm sweeps decide as cold" `Quick
      test_campaign_live_cyclic;
  ]
