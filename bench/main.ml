(* Benchmark harness.

   `dune exec bench/main.exe`            -- every suite
   `dune exec bench/main.exe -- fig3`    -- one experiment
                  (fig3 fig12 thm4 thm5 thm6 matrix perf obs all)

   The experiment tables regenerate every figure of the paper (DESIGN.md
   section 4); `obs` gates the cost of disabled instrumentation probes. *)

open Dfr_topology
open Dfr_network
open Dfr_routing
open Dfr_core

(* all wall-time measurements use the monotonic clock: an NTP step
   mid-bench must not corrupt a published BENCH_*.json figure *)
module Mono = Dfr_util.Monotime

(* ------------- observability: disabled-probe overhead + stages -------- *)

module Obs = Dfr_obs.Obs

let bench2_json = "BENCH_2.json"

let median samples =
  let sorted = List.sort compare samples in
  List.nth sorted (List.length sorted / 2)

(* The <2% budget is asserted against an estimate, not a differential
   timing: (disabled probes per build) x (cost of one disabled probe),
   relative to the measured build time.  A differential measurement of two
   ~160us builds is dominated by scheduling noise; the product of a
   100k-sample probe cost and a counted number of probes is stable. *)
let run_obs () =
  Printf.printf "\n=== observability: disabled-probe overhead, stage breakdown ===\n%!";
  let cube3 = Net.wormhole (Topology.hypercube 3) ~vcs:2 in
  let space3 = State_space.build cube3 Hypercube_wormhole.efa in
  Obs.disable ();
  let per_probe_ns =
    let batch = 100_000 in
    let timed () =
      let t0 = Mono.now () in
      for _ = 1 to batch do
        Obs.span "noop" (fun () -> ());
        Obs.count "noop" 1
      done;
      (* the loop body is two probes *)
      (Mono.now () -. t0) *. 1e9 /. float_of_int batch /. 2.0
    in
    median (List.init 9 (fun _ -> timed ()))
  in
  (* probes per bwg-build, counted from one enabled run on a warm
     move-graph cache; counters are tallied by call (a magnitude-valued
     counter like bwg.closure.words is one probe per record, not one per
     accumulated word) *)
  ignore (Bwg.build space3);
  Obs.enable ();
  ignore (Bwg.build space3);
  let probes =
    List.fold_left (fun acc (_, (n, _)) -> acc + n) 0 (Obs.span_totals ())
    + List.length (Obs.gauges ())
    + List.fold_left (fun acc (_, n) -> acc + n) 0 (Obs.counter_calls ())
  in
  Obs.disable ();
  let build_ns =
    median
      (List.init 21 (fun _ ->
           let t0 = Mono.now () in
           ignore (Bwg.build space3);
           (Mono.now () -. t0) *. 1e9))
  in
  let overhead_pct = 100.0 *. float_of_int probes *. per_probe_ns /. build_ns in
  Printf.printf
    "disabled probe %.1f ns, %d probes/bwg-build, build %.0f ns -> overhead %.4f%%\n"
    per_probe_ns probes build_ns overhead_pct;
  if overhead_pct >= 2.0 then begin
    Printf.eprintf
      "FAIL: disabled-instrumentation overhead %.3f%% exceeds the 2%% budget\n"
      overhead_pct;
    exit 1
  end;
  (* stage breakdown of one fully traced check *)
  Obs.enable ();
  ignore (Checker.check cube3 Dfr_routing.Hypercube_wormhole.efa);
  let stages = Obs.metrics_json () in
  Obs.disable ();
  let module J = Dfr_util.Json in
  let doc =
    J.Obj
      [
        ("suite", J.String "observability");
        ("probe_ns_disabled", J.Float per_probe_ns);
        ("probes_per_bwg_build", J.Int probes);
        ("bwg_build_ns", J.Float build_ns);
        ("overhead_pct", J.Float overhead_pct);
        ("overhead_budget_pct", J.Float 2.0);
        ("check_efa_3cube", stages);
      ]
  in
  let oc = open_out bench2_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench2_json

(* ----------------- E15: serve — cold vs cached latency ---------------- *)

let bench5_json = "BENCH_5.json"

(* The serving claim (ISSUE: cached re-check >= 10x faster than cold on
   efa-3cube) is measured against the engine directly: same handle/await
   surface the stdio and TCP loops drive, no transport noise.  Cold
   samples each use a fresh engine so the cache and the digest memo start
   empty; pool workers outlive engines, so only the first sample pays for
   spawning one, and the median drops it. *)
let run_serve () =
  Printf.printf "\n=== E15: serve — cold vs cached check latency ===\n%!";
  let module J = Dfr_util.Json in
  let module E = Dfr_serve.Engine in
  let line =
    J.to_string
      (J.Obj
         [
           ("op", J.String "check");
           ("algo", J.String "efa");
           ("topology", J.String "hypercube:3");
         ])
  in
  let cached resp =
    match J.member "cached" resp with Some (J.Bool b) -> b | _ -> false
  in
  let ok resp = match J.member "ok" resp with Some (J.Bool b) -> b | _ -> false in
  let request engine =
    let t0 = Mono.now () in
    let resp = E.await engine (E.handle_line engine line) in
    ((Mono.now () -. t0) *. 1e9, resp)
  in
  let cold_ns =
    median
      (List.init 7 (fun _ ->
           let e = E.create E.default_config in
           let dt, resp = request e in
           if not (ok resp) || cached resp then begin
             Printf.eprintf "FAIL: cold serve request did not check: %s\n"
               (J.to_string resp);
             exit 1
           end;
           E.shutdown e;
           dt))
  in
  let engine = E.create E.default_config in
  let _warmup = request engine in
  let warm_ns =
    median
      (List.init 501 (fun _ ->
           let dt, resp = request engine in
           if not (cached resp) then begin
             Printf.eprintf "FAIL: warm serve request missed the cache\n";
             exit 1
           end;
           dt))
  in
  let reqs = 5_000 in
  let t0 = Mono.now () in
  for _ = 1 to reqs do
    ignore (E.await engine (E.handle_line engine line))
  done;
  let rps = float_of_int reqs /. (Mono.now () -. t0) in
  E.shutdown engine;
  let speedup = cold_ns /. warm_ns in
  Printf.printf
    "cold %.0f ns, cached %.0f ns -> %.1fx; %.0f cached requests/s\n" cold_ns
    warm_ns speedup rps;
  if speedup < 10.0 then begin
    Printf.eprintf
      "FAIL: cached re-check only %.1fx faster than cold (budget 10x)\n" speedup;
    exit 1
  end;
  let doc =
    J.Obj
      [
        ("suite", J.String "serve");
        ("problem", J.String "efa@hypercube:3");
        ("cold_ns", J.Float cold_ns);
        ("warm_ns", J.Float warm_ns);
        ("speedup_warm_vs_cold", J.Float speedup);
        ("speedup_budget", J.Float 10.0);
        ("cached_requests_per_sec", J.Float rps);
        ("throughput_requests", J.Int reqs);
      ]
  in
  let oc = open_out bench5_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench5_json

(* ------------- E16: scale — 10k-100k-buffer instances ----------------- *)

let bench6_json = "BENCH_6.json"

(* Every instance is checked end to end (state space, BWG, certificate)
   with wall time, peak RSS and major-heap allocation recorded.  The
   kernel's VmHWM watermark is reset before each instance, so peaks are
   per-instance, not cumulative; Gc.compact between instances returns
   free pages so one instance's heap does not inflate the next one's
   RSS floor. *)
let scale_instances =
  [
    (* the fullmesh and dragonfly instances are >= 10^4 buffers and the
       fullmesh:320 headline >= 10^5; kntree:4x3 is small and rides along
       for topology-family coverage (kntree:8x3 checks fine but takes
       over a minute, too slow to re-run on every bench invocation) *)
    ("fullmesh:104", "fullmesh-direct", 3);
    ("dragonfly:10x4x41", "dragonfly-minimal", 3);
    ("kntree:4x3", "kntree-updown", 3);
    ("fullmesh:224", "fullmesh-direct", 1);
    ("fullmesh:320", "fullmesh-direct", 1);
  ]

let resolve_instance (topo_s, algo_s, repeats) =
  let entry =
    match Registry.find algo_s with
    | Some e -> e
    | None -> failwith ("scale: unknown algorithm " ^ algo_s)
  in
  let topo =
    match Topology.of_string topo_s with
    | Ok t -> t
    | Error msg -> failwith ("scale: bad topology " ^ topo_s ^ ": " ^ msg)
  in
  (topo_s, entry, Registry.network_for entry (Some topo), repeats)

let counter_of name snapshot = Option.value (List.assoc_opt name snapshot) ~default:0

let verdict_name = function
  | Checker.Deadlock_free _ -> "deadlock-free"
  | Checker.Deadlock_possible _ -> "deadlock-possible"
  | Checker.Unknown _ -> "unknown"

let run_scale () =
  Printf.printf "\n=== E16: scale — large instances, time and memory ===\n%!";
  let module J = Dfr_util.Json in
  (* reset VmHWM before each measured phase, and say so when the peak that
     follows still includes earlier phases *)
  let peaks_per_phase = ref true in
  let reset_peak label =
    if not (Obs.reset_peak_rss ()) then begin
      peaks_per_phase := false;
      Printf.printf "(%s: VmHWM did not drop; its peak RSS includes earlier phases)\n%!"
        label
    end
  in
  let instance_row (name, entry, net, repeats) =
    Gc.compact ();
    reset_peak name;
    Obs.enable ();
    let before = Obs.counters () in
    let gc0 = Gc.quick_stat () in
    let t0 = Mono.now () in
    let verdict = Checker.verdict net entry.Registry.algo in
    let first_ns = (Mono.now () -. t0) *. 1e9 in
    let gc1 = Gc.quick_stat () in
    let after = Obs.counters () in
    Obs.disable ();
    let best_ns =
      List.fold_left
        (fun best _ ->
          let t0 = Mono.now () in
          ignore (Checker.verdict net entry.Registry.algo : Checker.verdict);
          min best ((Mono.now () -. t0) *. 1e9))
        first_ns
        (List.init (repeats - 1) Fun.id)
    in
    let delta n = counter_of n after - counter_of n before in
    let buffers = Net.num_buffers net and nodes = Net.num_nodes net in
    let peak_kb = Option.value (Obs.peak_rss_kb ()) ~default:0 in
    Printf.printf
      "%-20s %8d bufs  %-13s  %8.2f s  peak %6d MB  closure %9d words (%d dense rows)\n%!"
      name buffers (verdict_name verdict) (best_ns /. 1e9) (peak_kb / 1024)
      (delta "bwg.closure.words") (delta "bwg.closure.dense-rows");
    (match verdict with
    | Checker.Deadlock_free _ -> ()
    | v ->
      Printf.eprintf "FAIL: %s unexpectedly not deadlock-free: %s\n" name
        (Format.asprintf "%a" (Checker.pp_verdict net) v);
      exit 1);
    ( name,
      J.Obj
        [
          ("algorithm", J.String entry.Registry.name);
          ("buffers", J.Int buffers);
          ("nodes", J.Int nodes);
          ("states", J.Int (delta "space.states"));
          ("verdict", J.String (verdict_name verdict));
          ("runs", J.Int repeats);
          ("ns_per_run", J.Float best_ns);
          ("first_run_ns", J.Float first_ns);
          ("peak_rss_kb", J.Int peak_kb);
          ("major_words_allocated", J.Float (gc1.Gc.major_words -. gc0.Gc.major_words));
          ("closure_words_hybrid", J.Int (delta "bwg.closure.words"));
          ("closure_dense_rows", J.Int (delta "bwg.closure.dense-rows"));
        ] )
  in
  let rows = List.map instance_row (List.map resolve_instance scale_instances) in
  (* hybrid vs forced-dense closures on the sparsest instance: same state
     space, two BWG builds, closure storage and peak RSS side by side *)
  let _, entry, net, _ = resolve_instance ("dragonfly:10x4x41", "dragonfly-minimal", 1) in
  let space = State_space.build net entry.Registry.algo in
  let build_with dense =
    Gc.compact ();
    reset_peak (if dense then "dense closures" else "hybrid closures");
    Obs.enable ();
    let before = Obs.counters () in
    let t0 = Mono.now () in
    let bwg = Bwg.build ~dense_closures:dense space in
    let ns = (Mono.now () -. t0) *. 1e9 in
    let after = Obs.counters () in
    Obs.disable ();
    let words = counter_of "bwg.closure.words" after - counter_of "bwg.closure.words" before in
    let peak_kb = Option.value (Obs.peak_rss_kb ()) ~default:0 in
    (bwg, words, peak_kb, ns)
  in
  let bwg_h, words_h, rss_h, ns_h = build_with false in
  let bwg_d, words_d, rss_d, ns_d = build_with true in
  let identical = Bwg.is_acyclic bwg_h = Bwg.is_acyclic bwg_d in
  let ratio = float_of_int words_h /. float_of_int (max 1 words_d) in
  Printf.printf
    "hybrid vs dense closures (dragonfly:10x4x41): %d vs %d words (%.3fx), \
     peak %d vs %d MB\n%!"
    words_h words_d ratio (rss_h / 1024) (rss_d / 1024);
  if ratio > 0.5 then begin
    Printf.eprintf
      "FAIL: hybrid closure storage %.3fx of forced-dense exceeds the 0.5x budget\n"
      ratio;
    exit 1
  end;
  if not identical then begin
    Printf.eprintf "FAIL: hybrid and dense closures disagree on acyclicity\n";
    exit 1
  end;
  (* --domains sweep on the same instance: verdicts must match bit for bit *)
  let sweep =
    List.map
      (fun domains ->
        Gc.compact ();
        let t0 = Mono.now () in
        let v = Checker.verdict ~domains net entry.Registry.algo in
        let ns = (Mono.now () -. t0) *. 1e9 in
        (domains, v, ns))
      [ 1; 2; 4 ]
  in
  let render v = Format.asprintf "%a" (Checker.pp_verdict net) v in
  let reference = match sweep with (_, v, _) :: _ -> render v | [] -> "" in
  let identical_sweep = List.for_all (fun (_, v, _) -> render v = reference) sweep in
  List.iter
    (fun (d, _, ns) -> Printf.printf "domains=%d  %8.2f s\n%!" d (ns /. 1e9))
    sweep;
  if not identical_sweep then begin
    Printf.eprintf "FAIL: verdict differs across --domains\n";
    exit 1
  end;
  let doc =
    J.Obj
      [
        ("suite", J.String "scale");
        ("unit", J.String "ns/run");
        ("instances", J.Obj rows);
        ( "hybrid_vs_dense",
          J.Obj
            [
              ("instance", J.String "dragonfly:10x4x41");
              ("closure_words_hybrid", J.Int words_h);
              ("closure_words_dense", J.Int words_d);
              ("ratio", J.Float ratio);
              ("ratio_budget", J.Float 0.5);
              ("peak_rss_kb_hybrid", J.Int rss_h);
              ("peak_rss_kb_dense", J.Int rss_d);
              ("bwg_build_ns_hybrid", J.Float ns_h);
              ("bwg_build_ns_dense", J.Float ns_d);
              ("verdicts_identical", J.Bool identical);
            ] );
        ( "domains_sweep",
          J.Obj
            [
              ("instance", J.String "dragonfly:10x4x41");
              ("verdicts_identical", J.Bool identical_sweep);
              ( "runs",
                J.List
                  (List.map
                     (fun (d, _, ns) ->
                       J.Obj [ ("domains", J.Int d); ("ns", J.Float ns) ])
                     sweep) );
            ] );
        ("peak_rss_is_per_instance", J.Bool !peaks_per_phase);
      ]
  in
  let oc = open_out bench6_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench6_json

(* ------------------- E19: --domains end-to-end speedup ----------------- *)

let bench9_json = "BENCH_9.json"

(* Full checks (validate + state space + BWG + classification) of the
   largest catalogue instance across --domains 1/2/4.  Two gates:

   - the JSON reports must be byte-identical across domain counts —
     the determinism contract of Domain_pool, end to end;
   - a hardware-aware performance gate.  On >= 4 cores the parallel
     phases must deliver >= 1.6x end-to-end at --domains 4.  On
     smaller machines a speedup cannot physically exist, so the gate
     degrades to bounded overhead: --domains 4 may cost at most 1.25x
     serial (the pool's concurrency cap makes oversubscription run the
     same chunks sequentially).  The JSON records the core count and
     which gate applied, so a CI log can never pass silently for the
     wrong reason. *)
let run_domains () =
  Printf.printf "\n=== E19: --domains end-to-end, dragonfly:10x4x41 ===\n%!";
  let module J = Dfr_util.Json in
  let _, entry, net, _ =
    resolve_instance ("dragonfly:10x4x41", "dragonfly-minimal", 1)
  in
  let algo = entry.Registry.algo in
  let run domains =
    (* best of two: the first run also warms the page cache and the
       major heap, so a single timing would overcharge domains=1 *)
    let once () =
      Gc.compact ();
      let t0 = Mono.now () in
      let r = Checker.check ~domains net algo in
      (Mono.now () -. t0, Report_json.to_string net algo r)
    in
    let s1, report = once () in
    let s2, report' = once () in
    if report <> report' then begin
      Printf.eprintf "FAIL: domains=%d is not deterministic across runs\n"
        domains;
      exit 1
    end;
    (domains, report, Float.min s1 s2)
  in
  let runs = List.map run [ 1; 2; 4 ] in
  let reference = match runs with (_, r, _) :: _ -> r | [] -> "" in
  let identical = List.for_all (fun (_, r, _) -> r = reference) runs in
  List.iter (fun (d, _, s) -> Printf.printf "domains=%d  %6.2f s\n%!" d s) runs;
  if not identical then begin
    Printf.eprintf "FAIL: reports differ across --domains\n";
    exit 1
  end;
  let time d =
    match List.find_opt (fun (d', _, _) -> d' = d) runs with
    | Some (_, _, s) -> s
    | None -> assert false
  in
  let t1 = time 1 and t4 = time 4 in
  let speedup = t1 /. t4 in
  let cores = Domain.recommended_domain_count () in
  let gate, pass =
    if cores >= 4 then ("speedup_ge_1.6", speedup >= 1.6)
    else ("overhead_le_1.25", t4 <= t1 *. 1.25)
  in
  Printf.printf "cores=%d  speedup(1->4)=%.2fx  gate=%s  %s\n%!" cores speedup
    gate
    (if pass then "ok" else "FAIL");
  let doc =
    J.Obj
      [
        ("suite", J.String "domains");
        ("instance", J.String "dragonfly:10x4x41");
        ("cores", J.Int cores);
        ("pool_cap", J.Int (Dfr_util.Domain_pool.cap ()));
        ("pool_workers_spawned", J.Int (Dfr_util.Domain_pool.spawned ()));
        ("reports_identical", J.Bool identical);
        ( "runs",
          J.List
            (List.map
               (fun (d, _, s) ->
                 J.Obj [ ("domains", J.Int d); ("seconds", J.Float s) ])
               runs) );
        ("speedup_1_to_4", J.Float speedup);
        ("gate", J.String gate);
        ("gate_passed", J.Bool pass);
      ]
  in
  let oc = open_out bench9_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench9_json;
  if not pass then begin
    Printf.eprintf "FAIL: --domains gate %s did not hold (speedup %.2fx)\n" gate
      speedup;
    exit 1
  end

(* ------------------- E17: synthesis and repair costs ------------------ *)

let bench7_json = "BENCH_7.json"

(* Time-to-first-BWG', clause-learning counters, and repair minimality.
   Everything here is deterministic (no randomized search), so a single
   timed run per row suffices; the interesting numbers are the search
   statistics, not nanosecond jitter. *)
let run_synth () =
  Printf.printf "\n=== E17: synthesis — time to BWG', learning, repair ===\n%!";
  let module J = Dfr_util.Json in
  let module Synth = Dfr_synth.Synth in
  let entry name =
    match Registry.find name with
    | Some e -> e
    | None -> failwith ("synth bench: unknown registry entry " ^ name)
  in
  let timed f =
    let t0 = Mono.now () in
    let r = f () in
    (r, (Mono.now () -. t0) *. 1e9)
  in
  let stats_json (s : Synth.stats) =
    J.Obj
      [
        ("rebuilds", J.Int s.Synth.rebuilds);
        ("decisions", J.Int s.Synth.decisions);
        ("conflicts", J.Int s.Synth.conflicts);
        ("clauses_learned", J.Int s.Synth.learned);
        ("pruned", J.Int s.Synth.pruned);
        ("restored", J.Int s.Synth.restored);
      ]
  in
  (* Row 1: Theorem-3 forward synthesis on every multi-wait catalogue
     algorithm the checker accepts — time to the first BWG' plus the
     search counters. *)
  let bwg_rows =
    List.filter_map
      (fun (name, minimize) ->
        let e = entry name in
        let net = Registry.network_for e None in
        let space = State_space.build net e.Registry.algo in
        let outcome, ns =
          timed (fun () -> Synth.synthesize ~minimize space)
        in
        match outcome with
        | Synth.Synthesized s ->
          Printf.printf "  bwg %-24s %8.2f ms  removed %3d  %s\n%!" name
            (ns /. 1e6) (List.length s.Synth.removed)
            (Printf.sprintf "rebuilds %d, clauses %d" s.Synth.stats.Synth.rebuilds
               s.Synth.stats.Synth.learned);
          Some
            ( name,
              J.Obj
                [
                  ("time_to_bwg_prime_ns", J.Float ns);
                  ("minimized", J.Bool minimize);
                  ("removed", J.Int (List.length s.Synth.removed));
                  ("stats", stats_json s.Synth.stats);
                ] )
        | _ ->
          Printf.printf "  bwg %-24s did not synthesize (skipped row)\n%!" name;
          None)
      [ ("two-buffer", true); ("two-buffer-vct", true); ("duato", false) ]
  in
  (* Row 2: honest Unsat — Theorem 3's necessity direction on a
     deadlocking control.  The cost of concluding "no BWG' exists". *)
  let unsat_row =
    let e = entry "single-buffer" in
    let net = Registry.network_for e None in
    let space = State_space.build net e.Registry.algo in
    let outcome, ns = timed (fun () -> Synth.synthesize space) in
    let verdict =
      match outcome with
      | Synth.Unsat _ -> "unsat"
      | Synth.Synthesized _ -> "synthesized"
      | Synth.Already_free _ -> "already-free"
      | Synth.Gave_up _ -> "gave-up"
    in
    Printf.printf "  unsat %-22s %8.2f ms  verdict %s\n%!" "single-buffer"
      (ns /. 1e6) verdict;
    J.Obj
      [
        ("algorithm", J.String "single-buffer");
        ("time_ns", J.Float ns);
        ("verdict", J.String verdict);
      ]
  in
  (* Row 3: repair minimality on the dragonfly control — how many route
     entries the virtual-copy widening adds, how many the search removes,
     and how many the greedy re-admission pass hands back. *)
  let repair_row =
    let e = entry "dragonfly-minimal-1vc" in
    let net = Registry.network_for e None in
    let outcome, ns = timed (fun () -> Synth.repair net e.Registry.algo) in
    match outcome with
    | Synth.Synthesized s ->
      let removed = List.length s.Synth.removed in
      Printf.printf
        "  repair %-21s %8.2f ms  widened %d, removed %d, restored %d\n%!"
        "dragonfly-minimal-1vc" (ns /. 1e6) s.Synth.widened removed
        s.Synth.stats.Synth.restored;
      J.Obj
        [
          ("algorithm", J.String "dragonfly-minimal-1vc");
          ("time_ns", J.Float ns);
          ("widened", J.Int s.Synth.widened);
          ("removed", J.Int removed);
          ("kept_of_widened", J.Int (s.Synth.widened - removed));
          ("stats", stats_json s.Synth.stats);
        ]
    | _ ->
      Printf.printf "  repair dragonfly-minimal-1vc FAILED\n%!";
      J.Obj [ ("error", J.String "repair did not synthesize") ]
  in
  (* Row 4: the same repair under Obs, for the per-phase span breakdown
     (solve vs attempt probes vs minimization). *)
  let obs_metrics =
    Obs.enable ();
    let e = entry "dragonfly-minimal-1vc" in
    let net = Registry.network_for e None in
    (match Synth.repair net e.Registry.algo with
    | Synth.Synthesized _ -> ()
    | _ -> Printf.printf "  obs repair run did not synthesize\n%!");
    let spans =
      List.map
        (fun (name, (calls, us)) ->
          ( name,
            J.Obj [ ("calls", J.Int calls); ("total_us", J.Float us) ] ))
        (List.sort compare (Obs.span_totals ()))
    in
    let metrics = Obs.metrics_json () in
    Obs.disable ();
    List.iter
      (fun (name, j) ->
        match j with
        | J.Obj [ _; ("total_us", J.Float us) ] ->
          Printf.printf "  span %-28s %10.2f ms\n%!" name (us /. 1e3)
        | _ -> ())
      spans;
    J.Obj [ ("spans", J.Obj spans); ("metrics", metrics) ]
  in
  let doc =
    J.Obj
      [
        ("suite", J.String "synth");
        ("unit", J.String "ns");
        ("synthesize", J.Obj bwg_rows);
        ("unsat", unsat_row);
        ("repair", repair_row);
        ("repair_obs", obs_metrics);
      ]
  in
  let oc = open_out bench7_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench7_json

(* ------------- E18: incremental re-checking --------------------------- *)

let bench8_json = "BENCH_8.json"

(* Single-clause edits on the 11k-buffer dragonfly (the E16 headline
   instance), re-verdicted through an incremental session instead of a
   cold check.  The minimal routing is deterministic, so the measured
   route edit is a real one: widening one destination's final local hop
   to either virtual channel.  vc1 channels never route back to vc0, so
   the BWG stays acyclic and every re-verdict rides the fast path — but
   each widen adds rank-backward edges, so it also exercises the lazy
   rank recompute.  The wait-layer edits measure the O(cached emissions)
   patch path.  The ISSUE gate is the 10x speedup over cold; the 100 us
   target is reported, not gated, since the route edit pays a full
   certificate recompute. *)
let run_incr () =
  Printf.printf "\n=== E18: incremental re-checking — dragonfly:10x4x41 ===\n%!";
  let module J = Dfr_util.Json in
  let entry =
    match Registry.find "dragonfly-minimal" with
    | Some e -> e
    | None -> failwith "incr: dragonfly-minimal not registered"
  in
  let topo =
    match Topology.of_string "dragonfly:10x4x41" with
    | Ok t -> t
    | Error m -> failwith ("incr: " ^ m)
  in
  let net = Registry.network_for entry (Some topo) in
  let algo = { entry.Registry.algo with Algo.reduced_waits = None } in
  let a =
    match Topology.dragonfly_params topo with
    | Some (a, _, _) -> a
    | None -> failwith "incr: not a dragonfly"
  in
  (* widen destination [d]'s final local hop to both vcs; every other
     destination routes exactly as before, so the frontier is [d] *)
  let widen d =
    Algo.with_relation algo ~name:algo.Algo.name (fun net b ~dest ->
        let base = algo.Algo.route net b ~dest in
        let head = Buf.head_node b in
        if dest = d && head / a = d / a && head <> d then
          let port = ((d mod a) - (head mod a) - 1 + a) mod a in
          let vc1 =
            Buf.id (Net.channel net ~src:head ~dim:port ~dir:Topology.Plus ~vc:1)
          in
          if List.mem vc1 base then base else base @ [ vc1 ]
        else base)
  in
  let time f =
    let t0 = Mono.now () in
    let r = f () in
    ((Mono.now () -. t0) *. 1e9, r)
  in
  let cold_ns, cold_report =
    time (fun () ->
        let report = Checker.check net algo in
        J.to_string (Report_json.of_outcome net algo report))
  in
  Printf.printf "cold check: %.2f s\n%!" (cold_ns /. 1e9);
  let create_ns, (session, r0) = time (fun () -> Incr.create net algo) in
  if J.to_string r0.Incr.report <> cold_report then begin
    Printf.eprintf "FAIL: incremental baseline differs from the cold report\n";
    exit 1
  end;
  let nn = State_space.num_nodes (Incr.space session) in
  let require_fast (r : Incr.result) =
    if r.Incr.path <> Incr.Fast then begin
      Printf.eprintf "FAIL: single-clause edit left the fast path\n";
      exit 1
    end
  in
  let edits = 20 in
  (* route-layer: widen a destination, then restore it — both are real
     single-destination changes re-deriving 1/nn of the instance *)
  let route_samples =
    List.concat
      (List.init edits (fun i ->
           let d = (i * 97 + 1) mod nn in
           let dt1, r1 = time (fun () -> Incr.update session (widen d) ~dirty:[ d ]) in
           let dt2, r2 = time (fun () -> Incr.update session algo ~dirty:[ d ]) in
           require_fast r1;
           require_fast r2;
           if J.to_string r2.Incr.report <> cold_report then begin
             Printf.eprintf "FAIL: restored instance differs from the cold report\n";
             exit 1
           end;
           [ dt1; dt2 ]))
  in
  (* wait-layer: a rewrapped waiting rule with unchanged values rides the
     quick patch path (this instance is deterministic, so there is
     nothing to narrow — the patch machinery itself is what's timed) *)
  let wait_samples =
    List.init edits (fun i ->
        let d = (i * 53 + 7) mod nn in
        let algo' =
          Algo.with_waits algo ~name:algo.Algo.name (fun net b ~dest ->
              algo.Algo.waits net b ~dest)
        in
        let dt, r = time (fun () -> Incr.update session algo' ~dirty:[ d ]) in
        require_fast r;
        dt)
  in
  let route_ns = median route_samples in
  let wait_ns = median wait_samples in
  let c = Incr.counters session in
  if c.Incr.patched_dests < edits then begin
    Printf.eprintf "FAIL: wait edits did not ride the patch path (%d patched)\n"
      c.Incr.patched_dests;
    exit 1
  end;
  let speedup = cold_ns /. route_ns in
  Printf.printf
    "cold %.0f ms, create %.0f ms; re-verdict: route edit %.0f us, wait edit \
     %.1f us -> %.0fx vs cold\n"
    (cold_ns /. 1e6) (create_ns /. 1e6) (route_ns /. 1e3) (wait_ns /. 1e3)
    speedup;
  if speedup < 10.0 then begin
    Printf.eprintf
      "FAIL: incremental re-verdict only %.1fx faster than cold (budget 10x)\n"
      speedup;
    exit 1
  end;
  let doc =
    J.Obj
      [
        ("suite", J.String "incr");
        ("problem", J.String "dragonfly-minimal@dragonfly:10x4x41");
        ("destinations", J.Int nn);
        ("edits", J.Int (List.length route_samples + List.length wait_samples));
        ("cold_ns", J.Float cold_ns);
        ("create_ns", J.Float create_ns);
        ("delta_route_edit_ns", J.Float route_ns);
        ("delta_wait_edit_ns", J.Float wait_ns);
        ("speedup_vs_cold", J.Float speedup);
        ("speedup_budget", J.Float 10.0);
        ("target_us", J.Int 100);
        ("route_edit_meets_target", J.Bool (route_ns <= 100_000.0));
        ("wait_edit_meets_target", J.Bool (wait_ns <= 100_000.0));
        ("verified_bit_for_bit", J.Bool true);
        ( "counters",
          J.Obj
            [
              ("updates", J.Int c.Incr.updates);
              ("fast_verdicts", J.Int c.Incr.fast_verdicts);
              ("replays", J.Int c.Incr.replays);
              ("patched_dests", J.Int c.Incr.patched_dests);
              ("reemitted_dests", J.Int c.Incr.reemitted_dests);
            ] );
      ]
  in
  let oc = open_out bench8_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench8_json

(* --------------------------------------------------------------------- *)

let bench10_json = "BENCH_10.json"

(* E20, two gates:

   (a) a 50-fault storm sweep on the 11k-buffer dragonfly rides ONE
   incremental session, so the whole campaign must beat 50 cold checks
   by >= 10x.  Cold cost is sampled (3 faults re-checked from scratch),
   not paid 50 times — the sampled reports double as a bit-for-bit check
   of the incremental path.

   (b) the analytic worst-case latency bounds are sound: on every
   catalogue wormhole instance where both sides are defined (bounds
   exist and the simulated workload drains), analytic p100 >= the
   simulator's observed p100. *)
let run_scenario () =
  Printf.printf "\n=== E20: fault campaigns + latency bounds ===\n%!";
  let module J = Dfr_util.Json in
  let module Fault = Dfr_scenario.Fault in
  let module Degrade = Dfr_scenario.Degrade in
  let module Scenario = Dfr_scenario.Scenario in
  let module Latency = Dfr_scenario.Latency in
  let module Traffic = Dfr_sim.Traffic in
  let module Wormhole_sim = Dfr_sim.Wormhole_sim in
  let module Stats = Dfr_sim.Stats in
  let time f =
    let t0 = Mono.now () in
    let r = f () in
    ((Mono.now () -. t0) *. 1e9, r)
  in
  (* ---- (a) the storm sweep ---------------------------------------- *)
  let entry =
    match Registry.find "dragonfly-minimal" with
    | Some e -> e
    | None -> failwith "scenario: dragonfly-minimal not registered"
  in
  let topo =
    match Topology.of_string "dragonfly:10x4x41" with
    | Ok t -> t
    | Error m -> failwith ("scenario: " ^ m)
  in
  let net = Registry.network_for entry (Some topo) in
  let algo = entry.Registry.algo in
  let faults = 50 in
  let plan =
    {
      Fault.name = Some "bench-storm";
      seed = 8088;
      steps = [ { Fault.at = 0; fault = Fault.Storm { count = faults; seed = None } } ];
    }
  in
  let incr_ns, campaign =
    time (fun () ->
        match Scenario.campaign ~mode:`Sweep net algo plan with
        | Ok c -> c
        | Error m -> failwith ("scenario: campaign: " ^ m))
  in
  let outcomes = Array.of_list campaign.Scenario.outcomes in
  if Array.length outcomes <> faults then begin
    Printf.eprintf "FAIL: expected %d outcomes, got %d\n" faults
      (Array.length outcomes);
    exit 1
  end;
  Printf.printf "incremental sweep: %d faults in %.2f s (%d buffers)\n%!" faults
    (incr_ns /. 1e9)
    (Net.num_buffers net);
  let steps =
    match Fault.expand plan net with
    | Ok s -> Array.of_list s
    | Error m -> failwith ("scenario: expand: " ^ m)
  in
  let sampled = [ 0; faults / 2; faults - 1 ] in
  let cold_samples =
    List.map
      (fun i ->
        let step = steps.(i) in
        let algo' =
          match Degrade.apply campaign.Scenario.space [ step.Fault.fault ] with
          | Ok (Degrade.Filtered { algo = a; _ }) -> a
          | Ok (Degrade.Rebuilt _) ->
            failwith "scenario: a storm kill rebuilt the skeleton"
          | Error m -> failwith ("scenario: degrade: " ^ m)
        in
        let ns, cold_report =
          time (fun () ->
              let r = Checker.check net algo' in
              J.to_string (Report_json.of_outcome net algo' r))
        in
        if J.to_string outcomes.(i).Scenario.report <> cold_report then begin
          Printf.eprintf
            "FAIL: fault %d: incremental report differs from cold bytes\n" i;
          exit 1
        end;
        Printf.printf "  cold fault %-2d: %.2f s (bytes match)\n%!" i (ns /. 1e9);
        ns)
      sampled
  in
  let cold_per_fault = median cold_samples in
  let est_cold_ns = cold_per_fault *. float_of_int faults in
  let speedup = est_cold_ns /. incr_ns in
  Printf.printf
    "cold per fault %.2f s (median of %d) -> est. cold sweep %.0f s; \
     speedup %.1fx (budget 10x)\n%!"
    (cold_per_fault /. 1e9) (List.length cold_samples) (est_cold_ns /. 1e9)
    speedup;
  if speedup < 10.0 then begin
    Printf.eprintf
      "FAIL: incremental fault sweep only %.1fx faster than cold (budget 10x)\n"
      speedup;
    exit 1
  end;
  (* ---- (b) latency soundness over the catalogue -------------------- *)
  let latency_rows =
    List.filter_map
      (fun (e : Registry.entry) ->
        if e.Registry.expected_deadlock_free <> Some true then None
        else
          let net = Registry.network_for e None in
          match (Net.switching net, Net.topology net) with
          | Net.Wormhole, Some t -> (
            let traffic =
              Traffic.bursty t ~pattern:Traffic.Uniform ~burst:4 ~rate:0.02
                ~length:4 ~horizon:400 ~seed:11
            in
            if traffic = [] then None
            else
              let report = Checker.check net e.Registry.algo in
              match report.Checker.verdict with
              | Checker.Deadlock_free _ -> (
                let bounds =
                  Latency.analyze report.Checker.space report.Checker.bwg traffic
                in
                let observed =
                  match Wormhole_sim.run net e.Registry.algo traffic with
                  | Wormhole_sim.Completed stats ->
                    Some (Stats.percentile_latency stats 1.0)
                  | _ -> None
                in
                match (bounds.Latency.defined, observed) with
                | true, Some obs ->
                  let sound = bounds.Latency.p100 >= obs in
                  Printf.printf "  %-22s bound p100 %6d, observed %4d  %s\n%!"
                    e.Registry.name bounds.Latency.p100 obs
                    (if sound then "sound" else "VIOLATED");
                  Some
                    ( J.Obj
                        [
                          ("instance", J.String e.Registry.name);
                          ("packets", J.Int (Traffic.count traffic));
                          ("bound_p50", J.Int bounds.Latency.p50);
                          ("bound_p100", J.Int bounds.Latency.p100);
                          ("observed_p100", J.Int obs);
                          ("sound", J.Bool sound);
                        ],
                      sound )
                | _ -> None)
              | _ -> None)
          | _ -> None)
      Registry.all
  in
  if latency_rows = [] then begin
    Printf.eprintf "FAIL: no catalogue instance produced comparable bounds\n";
    exit 1
  end;
  if List.exists (fun (_, sound) -> not sound) latency_rows then begin
    Printf.eprintf "FAIL: an analytic latency bound fell below the observed p100\n";
    exit 1
  end;
  let doc =
    J.Obj
      [
        ("suite", J.String "scenario");
        ("problem", J.String "dragonfly-minimal@dragonfly:10x4x41");
        ("buffers", J.Int (Net.num_buffers net));
        ("faults", J.Int faults);
        ("sweep_ns", J.Float incr_ns);
        ("cold_per_fault_ns", J.Float cold_per_fault);
        ("est_cold_sweep_ns", J.Float est_cold_ns);
        ("speedup_vs_cold", J.Float speedup);
        ("speedup_budget", J.Float 10.0);
        ("verified_bit_for_bit", J.Bool true);
        ("latency_soundness", J.List (List.map fst latency_rows));
      ]
  in
  let oc = open_out bench10_json in
  output_string oc (J.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" bench10_json

(* --------------------------------------------------------------------- *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "fig3" -> Experiments.fig3 ()
  | "fig12" -> Experiments.fig12 ()
  | "thm4" -> Experiments.thm4 ()
  | "thm5" -> Experiments.thm5 ()
  | "thm6" -> Experiments.thm6 ()
  | "matrix" -> Experiments.matrix ()
  | "perf" -> Experiments.perf ()
  | "ablations" -> Experiments.ablations ()
  | "perf-router" -> Experiments.perf_router ()
  | "mesh-adaptiveness" -> Experiments.mesh_adaptiveness ()
  | "turns" -> Experiments.turn_tables ()
  | "parallel" -> Experiments.parallel_bwg ()
  | "obs" -> run_obs ()
  | "serve" -> run_serve ()
  | "scale" -> run_scale ()
  | "domains" -> run_domains ()
  | "synth" -> run_synth ()
  | "incr" -> run_incr ()
  | "scenario" -> run_scenario ()
  | "all" ->
    Experiments.all ();
    run_obs ();
    run_serve ();
    run_scale ();
    run_domains ();
    run_synth ();
    run_incr ();
    run_scenario ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (fig3 fig12 thm4 thm5 thm6 matrix perf ablations obs serve scale domains synth incr scenario all)\n"
      other;
    exit 1
