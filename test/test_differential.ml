(* The differential fuzzing harness, tested three ways:

   1. the oracle agrees with the checker on the whole registry catalogue
      (bounded seeds/horizon) — the curated counterpart of the random
      campaigns;
   2. campaigns are deterministic: same seed => identical summary,
      regardless of the domain count;
   3. the harness actually catches bugs: a deliberately lying checker is
      flagged within a few trials and the disagreement shrinks to a
      small case whose printed .dfr spec recompiles into a genuine
      deadlock.

   Plus the spec printer's round-trip property on generated cases. *)

open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_fuzz

let check = Alcotest.check

(* ---------------- registry-wide agreement ---------------- *)

let test_registry_agreement () =
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let o = Oracle.confront ~sim_seeds:[ 1 ] ~count:3 net e.Registry.algo in
      match o.Oracle.disagreement with
      | None -> ()
      | Some d ->
        Alcotest.failf "catalogue entry %s: %s" e.Registry.name
          (Oracle.describe d))
    Registry.all

(* ---------------- campaign determinism ---------------- *)

let summary_fingerprint (s : Fuzz.summary) =
  Printf.sprintf "%d/%d/%d/%d/%d/%d/%d [%s]" s.Fuzz.trials s.Fuzz.free
    s.Fuzz.deadlock s.Fuzz.unknown s.Fuzz.confirmed s.Fuzz.refuted
    s.Fuzz.not_replayable
    (String.concat ";"
       (List.map
          (fun (f : Fuzz.finding) ->
            Printf.sprintf "t%d:%s" f.Fuzz.trial
              (match f.Fuzz.spec with Ok t -> t | Error e -> "!" ^ e))
          s.Fuzz.findings))

let test_determinism () =
  let cfg = { Fuzz.default_config with trials = 60; seed = 123 } in
  let a = Fuzz.run cfg in
  let b = Fuzz.run cfg in
  check Alcotest.string "same seed, same summary" (summary_fingerprint a)
    (summary_fingerprint b);
  let c = Fuzz.run { cfg with Fuzz.domains = 3 } in
  check Alcotest.string "domain split does not change the summary"
    (summary_fingerprint a) (summary_fingerprint c)

let test_head_is_clean () =
  (* the standing claim of this harness: checker and simulators agree on
     every generated case — a regression in either side shows up here *)
  let s = Fuzz.run { Fuzz.default_config with trials = 150; seed = 2026 } in
  check Alcotest.int "no disagreements at head" 0 (List.length s.Fuzz.findings);
  check Alcotest.int "no refuted witnesses" 0 s.Fuzz.refuted;
  check Alcotest.bool "both verdict classes exercised" true
    (s.Fuzz.free > 0 && s.Fuzz.deadlock > 0)

(* ---------------- the harness catches a planted bug ---------------- *)

(* A checker that certifies freedom whenever the real checker finds a
   deadlock: every deadlock-possible case becomes a disagreement the
   stress schedules must expose. *)
let lying_check net algo =
  let report = Checker.check net algo in
  match report.Checker.verdict with
  | Checker.Deadlock_possible _ ->
    { report with Checker.verdict = Checker.Deadlock_free Checker.Acyclic_bwg }
  | _ -> report

let test_planted_bug_caught_and_shrunk () =
  let cfg = { Fuzz.default_config with trials = 25; seed = 5 } in
  let s = Fuzz.run ~check:lying_check cfg in
  check Alcotest.bool "planted bug found" true (s.Fuzz.findings <> []);
  let f = List.hd s.Fuzz.findings in
  (match f.Fuzz.kind with
  | Oracle.Certified_free_but_deadlocked _ -> ()
  | Oracle.Witness_refuted -> Alcotest.fail "wrong disagreement kind");
  (* the shrunk case must still be a genuine deadlock ... *)
  let net, algo = Case.to_net_algo f.Fuzz.case in
  (match Checker.verdict net algo with
  | Checker.Deadlock_possible _ -> ()
  | v ->
    Alcotest.failf "shrunk case is not a deadlock: %a"
      (Checker.pp_verdict net) v);
  (* ... smaller than anything the generator emits whole ... *)
  check Alcotest.bool "shrinking made progress" true
    (Array.length f.Fuzz.case.Case.channels <= 8);
  (* ... and its printed spec must recompile to the same verdict *)
  match f.Fuzz.spec with
  | Error msg -> Alcotest.failf "shrunk case unprintable: %s" msg
  | Ok text -> (
    match Dfr_spec.Spec.compile_string text with
    | Error e ->
      Alcotest.failf "shrunk spec does not recompile: %s"
        (Dfr_spec.Spec.error_to_string e)
    | Ok spec -> (
      match
        Checker.verdict spec.Dfr_spec.Spec.net spec.Dfr_spec.Spec.algo
      with
      | Checker.Deadlock_possible _ -> ()
      | v ->
        Alcotest.failf "recompiled spec lost the deadlock: %a"
          (Checker.pp_verdict spec.Dfr_spec.Spec.net) v))

(* ---------------- printer round-trip ---------------- *)

let verdict_class v = Checker.is_deadlock_free v

let test_printer_roundtrip () =
  (* generated cases cover wormhole and SAF/VCT switching, specific and
     any waiting, regular and irregular shapes.  The canonical reprint
     preserves buffer order, so the contract is stronger than agreeing
     on deadlock freedom: the whole verdict — proof structure, witness
     configurations, cycle indices — must be identical (every payload is
     plain integer data, so structural equality is exact), and the
     reprint must be a digest fixpoint (reprinting the reprint changes
     nothing, which is what makes the serve cache content-addressed). *)
  List.iter
    (fun seed ->
      let rng = Dfr_util.Prng.create seed in
      let case = Gen.case rng ~max_nodes:9 in
      let net, algo = Case.to_net_algo case in
      match Dfr_spec.Printer.to_string net algo with
      | Error msg -> Alcotest.failf "seed %d unprintable: %s" seed msg
      | Ok text -> (
        match Dfr_spec.Spec.compile_string text with
        | Error e ->
          Alcotest.failf "seed %d: printed spec does not compile: %s\n%s" seed
            (Dfr_spec.Spec.error_to_string e) text
        | Ok spec ->
          let net' = spec.Dfr_spec.Spec.net and algo' = spec.Dfr_spec.Spec.algo in
          let original = Checker.verdict net algo in
          let reprinted = Checker.verdict net' algo' in
          if original <> reprinted then
            Alcotest.failf
              "seed %d: verdict changed across the round trip:\n  %a\n  %a"
              seed (Checker.pp_verdict net) original (Checker.pp_verdict net')
              reprinted;
          match (Dfr_spec.Printer.digest net algo,
                 Dfr_spec.Printer.digest net' algo') with
          | Ok d, Ok d' ->
            check Alcotest.string
              (Printf.sprintf "seed %d digest fixpoint" seed) d d'
          | Error msg, _ | _, Error msg ->
            Alcotest.failf "seed %d: reprint undigestable: %s" seed msg))
    (List.init 30 (fun i -> 9000 + i))

let test_printer_roundtrip_registry () =
  (* the compiled-in custom network, the one case with parallel links *)
  match Registry.find "duato-incoherent" with
  | None -> ()
  | Some e ->
    let net = Registry.network_for e None in
    (match Dfr_spec.Printer.to_string net e.Registry.algo with
    | Error msg -> Alcotest.failf "incoherent unprintable: %s" msg
    | Ok text -> (
      match Dfr_spec.Spec.compile_string text with
      | Error err ->
        Alcotest.failf "incoherent reprint does not compile: %s"
          (Dfr_spec.Spec.error_to_string err)
      | Ok spec ->
        check
          Alcotest.(option bool)
          "incoherent verdict survives"
          (verdict_class (Checker.verdict net e.Registry.algo))
          (verdict_class
             (Checker.verdict spec.Dfr_spec.Spec.net spec.Dfr_spec.Spec.algo))))

let suite =
  [
    Alcotest.test_case "oracle agrees on the whole catalogue" `Quick
      test_registry_agreement;
    Alcotest.test_case "campaigns are deterministic across domains" `Quick
      test_determinism;
    Alcotest.test_case "150-trial campaign finds no disagreement" `Quick
      test_head_is_clean;
    Alcotest.test_case "planted checker bug is caught and shrunk" `Quick
      test_planted_bug_caught_and_shrunk;
    Alcotest.test_case "printer round-trips 30 generated cases" `Quick
      test_printer_roundtrip;
    Alcotest.test_case "printer round-trips the incoherent example" `Quick
      test_printer_roundtrip_registry;
  ]

(* ---------------- streaming Theorem-3 probe vs. eager reference ---------------- *)

(* The probe as it was before cycles streamed: enumerate every cycle up
   to the caps, then classify them in enumeration order and stop at the
   first True Cycle. *)
let eager_true_cycle_status ?cycle_limits ?class_limits bwg =
  let cycles, cycles_exhaustive = Bwg.cycles ?limits:cycle_limits bwg in
  let rec go uncertain = function
    | [] ->
      if not cycles_exhaustive then Error "cycle enumeration truncated"
      else if uncertain then Error "cycle classification hit its caps"
      else Ok None
    | c :: rest -> (
      match Cycle_class.classify ?limits:class_limits bwg c with
      | Cycle_class.True_cycle packets -> Ok (Some (c, packets))
      | Cycle_class.False_resource_cycle { exhaustive } ->
        go (uncertain || not exhaustive) rest)
  in
  go false cycles

let probe_limits =
  let tiny_class =
    { Cycle_class.max_paths_per_edge = 1; max_path_length = 2; max_assignments = 1 }
  in
  [
    (Some { Dfr_graph.Cycles.max_cycles = 500; max_length = 64 }, None);
    (Some { Dfr_graph.Cycles.max_cycles = 3; max_length = 8 }, None);
    (Some { Dfr_graph.Cycles.max_cycles = 500; max_length = 64 }, Some tiny_class);
  ]

let same_status what bwg =
  List.iter
    (fun (cycle_limits, class_limits) ->
      if
        Reduction.true_cycle_status ?cycle_limits ?class_limits bwg
        <> eager_true_cycle_status ?cycle_limits ?class_limits bwg
      then Alcotest.failf "%s: streaming probe differs from the eager one" what)
    probe_limits

let test_streaming_probe_catalogue () =
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let bwg = Bwg.build (State_space.build net e.Registry.algo) in
      if not (Bwg.is_acyclic bwg) then same_status e.Registry.name bwg)
    Registry.all

(* generated cases, each probed on its full BWG and on two candidate BWG's
   with random nonempty wait subsets, the shape Reduction.search builds *)
let test_streaming_probe_generated () =
  List.iter
    (fun seed ->
      let rng = Dfr_util.Prng.create seed in
      let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:8) in
      let space = State_space.build net algo in
      let restricted () =
        let tbl = Hashtbl.create 64 in
        State_space.iter_reachable space (fun ~buf ~dest ->
            Hashtbl.replace tbl (buf, dest)
              (Gen.subset rng (Slice_lists.waits space ~buf ~dest)));
        fun ~buf ~dest -> Option.value (Hashtbl.find_opt tbl (buf, dest)) ~default:[]
      in
      List.iteri
        (fun i bwg ->
          if not (Bwg.is_acyclic bwg) then
            same_status (Printf.sprintf "seed %d bwg %d" seed i) bwg)
        [
          Bwg.build space;
          Cold.bwg ~wait_sets:(restricted ()) space;
          Cold.bwg ~wait_sets:(restricted ()) space;
        ])
    (List.init 40 (fun i -> 7100 + i))

(* ---------------- indexed vs. linear first-match elaboration ---------------- *)

let elaborate resolution text =
  match Dfr_spec.Parser.parse_string text with
  | Error e -> Error e
  | Ok ast -> (
    match Dfr_spec.Validate.check ast with
    | Error e -> Error e
    | Ok v -> Dfr_spec.Elaborate.check ~resolution v)

(* Both resolutions must elaborate [text] to the same route and wait
   tables, or fail with the same first error; returns whether it
   elaborated. *)
let same_elaboration what text =
  match
    ( elaborate Dfr_spec.Elaborate.Indexed text,
      elaborate Dfr_spec.Elaborate.Linear text )
  with
  | Ok a, Ok b ->
    let net = a.Dfr_spec.Elaborate.net in
    let table (e : Dfr_spec.Elaborate.t) f =
      Array.to_list (Net.buffers e.Dfr_spec.Elaborate.net)
      |> List.concat_map (fun buf ->
             List.init (Net.num_nodes net) (fun dest ->
                 f e.Dfr_spec.Elaborate.algo e.Dfr_spec.Elaborate.net buf ~dest))
    in
    let route (algo : Algo.t) = algo.Algo.route
    and waits (algo : Algo.t) = algo.Algo.waits in
    if table a route <> table b route then Alcotest.failf "%s: route tables differ" what;
    if table a waits <> table b waits then Alcotest.failf "%s: wait tables differ" what;
    true
  | Error (pa, ma), Error (pb, mb) ->
    if (pa, ma) <> (pb, mb) then
      Alcotest.failf "%s: first errors differ: at byte %d %s / at byte %d %s" what pa ma pb mb;
    false
  | Ok _, Error (_, m) | Error (_, m), Ok _ ->
    Alcotest.failf "%s: only one resolution failed: %s" what m

let test_index_examples_and_reprints () =
  let dir = Filename.concat ".." "examples/specs" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".dfr" then
        ignore
          (same_elaboration f
             (In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all)))
    (Sys.readdir dir);
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      match Dfr_spec.Printer.to_string net e.Registry.algo with
      | Ok text ->
        if not (same_elaboration e.Registry.name text) then
          Alcotest.failf "%s: reprint does not elaborate" e.Registry.name
      | Error msg -> Alcotest.failf "%s unprintable: %s" e.Registry.name msg)
    Registry.all

(* Random rules spliced into a base spec: every selector form, with and
   without [to D], outputs drawn mostly from channels leaving the
   selected head node (so many specs elaborate) and sometimes from
   anywhere (so positioned errors occur too).  Bases are wormhole
   topology specs, whose [minimal] outputs make a trailing [at *]
   fallback deliver everything, and reprints of generated cases (any
   switching mode), whose own rules are all [in C] / [inj N]. *)
let random_rules_spec rng ~topology =
  let module P = Dfr_util.Prng in
  let base =
    if topology then
      Printf.sprintf "switching wormhole\nwaiting any\ntopology %s\nvcs 2\n%s"
        (P.pick rng [ "mesh:2x2"; "mesh:2x3"; "ring:4"; "hypercube:2"; "torus:3x3" ])
        (if P.bernoulli rng 0.8 then "route at * to * : minimal\n" else "")
    else
      match Case.to_spec (Gen.case rng ~max_nodes:6) with
      | Ok text -> text
      | Error msg -> Alcotest.failf "generated case unprintable: %s" msg
  in
  let lines = String.split_on_char '\n' base in
  let is_rule l =
    String.starts_with ~prefix:"route " l || String.starts_with ~prefix:"wait " l
  in
  let header = List.filter (fun l -> not (is_rule l)) lines in
  let rules = List.filter is_rule lines in
  let v =
    match Dfr_spec.Parser.parse_string (String.concat "\n" header) with
    | Ok ast -> (
      match Dfr_spec.Validate.check ast with
      | Ok v -> v
      | Error (_, m) -> Alcotest.failf "base does not validate: %s" m)
    | Error (_, m) -> Alcotest.failf "base does not parse: %s" m
  in
  let n = Dfr_spec.Validate.num_nodes v in
  let chans = Array.to_list (Dfr_spec.Validate.channels v) in
  let from node =
    List.filter (fun (c : Dfr_spec.Validate.channel) -> c.Dfr_spec.Validate.csrc = node) chans
  in
  let names cs =
    match cs with
    | [] -> "none"
    | _ ->
      let pick = Gen.subset rng cs in
      String.concat " " (List.map (fun (c : Dfr_spec.Validate.channel) -> c.Dfr_spec.Validate.cname) pick)
  in
  let random_rule () =
    let node = P.int rng n in
    let sel, head =
      match P.int rng 4 with
      | 0 -> (Printf.sprintf "at %d" node, Some node)
      | 1 -> ("at *", None)
      | 2 ->
        let c = P.pick rng chans in
        (Printf.sprintf "in %s" c.Dfr_spec.Validate.cname, Some c.Dfr_spec.Validate.cdst)
      | _ -> (Printf.sprintf "inj %d" node, Some node)
    in
    let dst = if P.bool rng then Printf.sprintf "%d" (P.int rng n) else "*" in
    let outs =
      match (P.int rng 10, head) with
      | 0, _ -> "none"
      | (1 | 2 | 3), _ when topology -> if P.bool rng then "minimal" else "minimal vc 0"
      | 4, _ | _, None -> names chans
      | _, Some h -> names (from h)
    in
    Printf.sprintf "%s %s to %s : %s"
      (if P.bernoulli rng 0.7 then "route" else "wait")
      sel dst outs
  in
  (* splice k random rules into the base's rule list at random places *)
  let rec splice k rules =
    if k = 0 then rules
    else
      let i = P.int rng (List.length rules + 1) in
      splice (k - 1)
        (List.filteri (fun j _ -> j < i) rules
        @ (random_rule () :: List.filteri (fun j _ -> j >= i) rules))
  in
  String.concat "\n" (header @ splice (1 + P.int rng 10) rules) ^ "\n"

let test_index_generated () =
  let ok = ref 0 and failed = ref 0 in
  List.iter
    (fun seed ->
      let rng = Dfr_util.Prng.create seed in
      let text = random_rules_spec rng ~topology:(seed mod 2 = 0) in
      if same_elaboration (Printf.sprintf "seed %d:\n%s" seed text) text then incr ok
      else incr failed)
    (List.init 300 (fun i -> 8100 + i));
  (* the corpus must exercise both outcomes *)
  check Alcotest.bool "some generated specs elaborate" true (!ok > 0);
  check Alcotest.bool "some generated specs fail" true (!failed > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "streaming True-Cycle probe = eager (catalogue)" `Quick
        test_streaming_probe_catalogue;
      Alcotest.test_case "streaming True-Cycle probe = eager (generated)" `Quick
        test_streaming_probe_generated;
      Alcotest.test_case "indexed rule resolution = linear (examples, reprints)"
        `Quick test_index_examples_and_reprints;
      Alcotest.test_case "indexed rule resolution = linear (generated)" `Quick
        test_index_generated;
    ]

(* ---------------- streaming multi-wait decide vs. the eager reference ---------------- *)

let verdict_kind = function
  | Checker.Deadlock_free Checker.Acyclic_bwg -> "theorem 1"
  | Checker.Deadlock_free (Checker.No_true_cycles _) -> "no true cycles"
  | Checker.Deadlock_free (Checker.Reduced_bwg _) -> "reduced"
  | Checker.Deadlock_possible (Checker.Stuck_states _) -> "stuck"
  | Checker.Deadlock_possible (Checker.Not_wait_connected _) -> "not wait-connected"
  | Checker.Deadlock_possible (Checker.Knot _) -> "knot"
  | Checker.Deadlock_possible (Checker.True_cycle _) -> "true cycle"
  | Checker.Deadlock_possible (Checker.No_reduction _) -> "no reduction"
  | Checker.Unknown _ -> "unknown"

(* the report less its cycle count, and less a [No_reduction]'s witness,
   which the stream may take from another True Cycle *)
let without_counts net algo report =
  let open Dfr_util.Json in
  let drop keys = function
    | Obj fields -> Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
    | j -> j
  in
  let witness =
    match report.Checker.verdict with
    | Checker.Deadlock_possible (Checker.No_reduction _) -> [ "cycle"; "packets" ]
    | _ -> []
  in
  match Report_json.of_report net algo report with
  | Obj fields ->
    to_string
      (Obj
         (List.map
            (fun (k, v) ->
              match k with
              | "bwg" -> (k, drop [ "cycles" ] v)
              | "verdict" -> (k, drop witness v)
              | _ -> (k, v))
            fields))
  | j -> to_string j

(* Counts of what the comparison met, so the corpus must show it covers
   the branch: reduced and no-reduction verdicts, and moved witnesses. *)
type tally = { mutable reduced : int; mutable no_reduction : int; mutable moved : int }

let same_decision tally what net algo =
  let reference =
    match Decide_ref.check net algo with
    | r -> Ok r
    | exception (Invalid_argument msg | Failure msg) -> Error msg
  in
  match (Checker.check_result net algo, reference) with
  | Error _, Error _ -> ()
  | Error msg, Ok _ | Ok _, Error msg ->
    Alcotest.failf "%s: only one side refused the case (%s)" what msg
  | Ok got, Ok want -> (
    let v = got.Checker.verdict and w = want.Checker.verdict in
    if verdict_kind v <> verdict_kind w then
      Alcotest.failf "%s: %s, the reference says %s" what (verdict_kind v) (verdict_kind w);
    if got.Checker.bwg_cycles <> None && got.Checker.bwg_cycles <> want.Checker.bwg_cycles
    then Alcotest.failf "%s: a cycle count differs from the reference's" what;
    if without_counts net algo got <> without_counts net algo want then
      Alcotest.failf "%s: the report differs from the reference's beyond the counts" what;
    match (v, w) with
    | ( Checker.Deadlock_free (Checker.Reduced_bwg { removed; _ }),
        Checker.Deadlock_free (Checker.Reduced_bwg { removed = removed'; _ }) ) ->
      tally.reduced <- tally.reduced + 1;
      if removed <> removed' then Alcotest.failf "%s: removed_waits differ" what
    | ( Checker.Deadlock_possible (Checker.No_reduction { cycle; _ }),
        Checker.Deadlock_possible (Checker.No_reduction { cycle = cycle'; _ }) ) -> (
      tally.no_reduction <- tally.no_reduction + 1;
      if cycle <> cycle' then tally.moved <- tally.moved + 1;
      match Cycle_class.classify got.Checker.bwg cycle with
      | Cycle_class.True_cycle _ -> ()
      | Cycle_class.False_resource_cycle _ ->
        Alcotest.failf "%s: the No_reduction witness is no True Cycle of the full BWG" what)
    | _ -> ())

let test_decide_ref_catalogue () =
  let tally = { reduced = 0; no_reduction = 0; moved = 0 } in
  List.iter
    (fun (e : Registry.entry) ->
      same_decision tally e.Registry.name (Registry.network_for e None) e.Registry.algo)
    Registry.all;
  check Alcotest.bool "the catalogue reaches a BWG'" true (tally.reduced > 0)

(* The generated corpus: at 3,000 cases it holds searched BWG's, exact
   No_reduction refutations, and witnesses the stream takes from another
   True Cycle than the shortest. *)
let test_decide_ref_generated () =
  let tally = { reduced = 0; no_reduction = 0; moved = 0 } in
  for i = 0 to 2999 do
    let rng = Dfr_util.Prng.create (1_000_003 + i) in
    let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:9) in
    same_decision tally (Printf.sprintf "case %d" i) net algo
  done;
  check Alcotest.bool "some generated case reaches a BWG'" true (tally.reduced > 0);
  check Alcotest.bool "some generated case has no BWG'" true (tally.no_reduction > 0);
  check Alcotest.bool "some No_reduction witness moved" true (tally.moved > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "streaming multi-wait decide = eager reference (catalogue)" `Quick
        test_decide_ref_catalogue;
      Alcotest.test_case "streaming multi-wait decide = eager reference (generated)" `Quick
        test_decide_ref_generated;
    ]

(* ---------------- reachable-state validation vs. the all-pairs sweep ---------------- *)

(* The checker validates only the states its BFS reaches (State_space.build
   runs Algo.state_problems inside the BFS); Algo.validate is the serial
   all-pairs sweep it replaced.  On every relation the sweep accepts the
   two must agree on the report; on a relation malformed at one state, the
   build must refuse exactly when that state is reachable. *)

let routed b ~dest = (not (Buf.is_delivery b)) && Buf.head_node b <> dest

(* Reachability as the paper defines it, independent of State_space: a
   worklist over (buffer, dest) states seeded at every other node's
   injection buffer and closed under the transit outputs of the route
   relation. *)
let reference_reachable net (algo : Algo.t) =
  let n = Net.num_nodes net in
  let seen = Hashtbl.create 256 in
  let rec go = function
    | [] -> ()
    | (buf, dest) :: rest when Hashtbl.mem seen (buf, dest) -> go rest
    | (buf, dest) :: rest ->
      Hashtbl.add seen (buf, dest) ();
      let b = Net.buffer net buf in
      let next =
        if Buf.head_node b = dest then []
        else
          List.filter_map
            (fun o -> if Buf.is_transit (Net.buffer net o) then Some (o, dest) else None)
            (algo.Algo.route net b ~dest)
      in
      go (next @ rest)
  in
  go
    (List.concat_map
       (fun src ->
         List.filter_map
           (fun dest ->
             if dest = src then None else Some (Buf.id (Net.injection net src), dest))
           (List.init n Fun.id))
       (List.init n Fun.id));
  fun ~buf ~dest -> Hashtbl.mem seen (buf, dest)

let report_bytes net algo =
  Report_json.to_string net algo (Checker.check net algo) ^ "\n"

(* (a) catalogue: every committed golden report (generated before the
   checks moved into the BFS) is reproduced by a relation the sweep
   accepts *)
let golden_dir = "golden"

let test_validated_catalogue_same_reports () =
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".json")
      (Array.to_list (Sys.readdir golden_dir))
  in
  check Alcotest.bool "catalogue goldens present" true (List.length files >= 26);
  List.iter
    (fun file ->
      let base = Filename.chop_suffix file ".json" in
      let name, topo =
        match String.index_opt base '@' with
        | None -> (base, None)
        | Some i ->
          ( String.sub base 0 i,
            Some
              (Result.get_ok
                 (Dfr_topology.Topology.of_string
                    (String.map
                       (fun c -> if c = '_' then ':' else c)
                       (String.sub base (i + 1) (String.length base - i - 1))))) )
      in
      let e = Option.get (Registry.find name) in
      let net = Registry.network_for e topo in
      (match Algo.validate e.Registry.algo net with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: the sweep refuses it: %s" file msg);
      let want =
        In_channel.with_open_bin (Filename.concat golden_dir file) In_channel.input_all
      in
      if report_bytes net e.Registry.algo <> want then
        Alcotest.failf "%s: report differs from the golden" file)
    files

(* (a) generated cases: the sweep accepts them, the build does too, and
   the state table the report is computed from is the reference one —
   reachable set, transit outputs and waits, state by state *)
let prop_validated_cases_same_table =
  QCheck.Test.make ~name:"accepted generated relations build the reference table"
    ~count:200 QCheck.small_nat (fun seed ->
      let rng = Dfr_util.Prng.create (31_000 + seed) in
      let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:8) in
      QCheck.assume (Algo.validate algo net = Ok ());
      let space = State_space.build net algo in
      let reachable = reference_reachable net algo in
      Array.for_all
        (fun b ->
          let buf = Buf.id b in
          List.for_all
            (fun dest ->
              let r = reachable ~buf ~dest in
              let same_relation () =
                Slice_lists.outputs space ~buf ~dest
                = List.filter
                    (fun o -> Buf.is_transit (Net.buffer net o))
                    (algo.Algo.route net b ~dest)
                && Slice_lists.waits space ~buf ~dest = algo.Algo.waits net b ~dest
              in
              State_space.is_reachable space ~buf ~dest = r
              && ((not (r && routed b ~dest)) || same_relation ()))
            (List.init (Net.num_nodes net) Fun.id))
        (Net.buffers net))

(* (a) the facts the BFS records: on generated relations cut to dead
   ends (no output, hence no wait) at some routed states and to no wait
   at others, the stuck and wait-less states the table records are a
   filter over the reference reachable set, after a cold build and after
   [with_updated_dests] moves the table between the cut relation and
   the uncut one over the cut destinations.  The dead ends come through
   [Algo.with_relation], whose waits are its route, so on the relation
   that waits on every output the BFS routes each state once; the empty
   waits come through [Algo.with_waits]. *)
let prop_recorded_facts =
  QCheck.Test.make ~name:"recorded stuck and wait-less states = the reference BFS"
    ~count:150 QCheck.small_nat (fun seed ->
      let rng = Dfr_util.Prng.create (37_000 + seed) in
      let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:8) in
      QCheck.assume (Algo.validate algo net = Ok ());
      let nn = Net.num_nodes net in
      let pick_states () =
        List.filter
          (fun _ -> Dfr_util.Prng.int rng 6 = 0)
          (List.concat_map
             (fun b ->
               List.filter_map
                 (fun dest -> if routed b ~dest then Some (Buf.id b, dest) else None)
                 (List.init nn Fun.id))
             (Array.to_list (Net.buffers net)))
      in
      let dead = pick_states () and idle = pick_states () in
      let cut =
        Algo.with_waits
          (Algo.with_relation algo (fun net b ~dest ->
               if List.mem (Buf.id b, dest) dead then [] else algo.Algo.route net b ~dest))
          (fun net b ~dest ->
            if List.mem (Buf.id b, dest) (dead @ idle) then []
            else algo.Algo.waits net b ~dest)
      in
      (* waiting on every output, uncut and cut *)
      let full = Algo.with_relation algo algo.Algo.route in
      let dead_full =
        Algo.with_relation algo (fun net b ~dest ->
            if List.mem (Buf.id b, dest) dead then [] else algo.Algo.route net b ~dest)
      in
      let expect (a : Algo.t) =
        let reachable = reference_reachable net a in
        let states f =
          List.concat_map
            (fun b ->
              List.filter_map
                (fun dest ->
                  let buf = Buf.id b in
                  if reachable ~buf ~dest && routed b ~dest && f b dest then Some (buf, dest)
                  else None)
                (List.init nn Fun.id))
            (Array.to_list (Net.buffers net))
        in
        ( states (fun b dest ->
              not
                (List.exists
                   (fun o -> Buf.is_transit (Net.buffer net o))
                   (a.Algo.route net b ~dest))),
          states (fun b dest -> a.Algo.waits net b ~dest = []) )
      in
      let got space = (State_space.stuck_states space, State_space.waitless_states space) in
      let dirty = List.sort_uniq compare (List.map snd (dead @ idle)) in
      List.for_all
        (fun (from, into) ->
          got (State_space.build net into) = expect into
          && got (State_space.with_updated_dests (State_space.build net from) into ~dests:dirty)
             = expect into)
        [ (algo, cut); (cut, algo); (full, dead_full); (dead_full, full) ])

(* (b) one planted fault at a random routed (buffer, dest), one for
   each clause of the contract: a wait outside the outputs, a duplicated
   output, an injection-buffer output, another node's delivery buffer as
   an output, an output channel not adjacent to the head node, and a
   hint entry outside the waits (the planted algorithm then carries a
   hint, its waits everywhere else).  Only the non-adjacent output is a
   transit buffer; states it makes reachable route as the accepted
   relation does. *)
type fault =
  | Stray_wait
  | Dup_output
  | Injection_output
  | Foreign_delivery
  | Not_adjacent
  | Stray_hint

(* the faults [plant] can plant at (buf, dest): a non-adjacent output
   needs a channel leaving another node *)
let faults net ~buf =
  let head = Buf.head_node (Net.buffer net buf) in
  let far b = match Buf.kind b with Buf.Channel { src; _ } -> src <> head | _ -> false in
  [ Stray_wait; Dup_output; Injection_output; Foreign_delivery; Stray_hint ]
  @ if Array.exists far (Net.buffers net) then [ Not_adjacent ] else []

let plant (algo : Algo.t) net ~buf ~dest fault =
  let at b d = Buf.id b = buf && d = dest in
  let outside l =
    List.find (fun x -> not (List.mem x l)) (List.init (Net.num_buffers net) Fun.id)
  in
  match fault with
  | Stray_wait ->
    let stray = outside (algo.Algo.route net (Net.buffer net buf) ~dest) in
    { algo with
      Algo.waits =
        (fun net b ~dest:d ->
          let ws = algo.Algo.waits net b ~dest:d in
          if at b d then ws @ [ stray ] else ws) }
  | Stray_hint ->
    let stray = outside (algo.Algo.waits net (Net.buffer net buf) ~dest) in
    { algo with
      Algo.reduced_waits =
        Some
          (fun net b ~dest:d ->
            let ws = algo.Algo.waits net b ~dest:d in
            if at b d then ws @ [ stray ] else ws) }
  | Dup_output | Injection_output | Foreign_delivery | Not_adjacent ->
    let head = Buf.head_node (Net.buffer net buf) in
    let extra route =
      match (fault, route) with
      | Dup_output, o :: _ -> [ o ]
      | Foreign_delivery, _ ->
        [ Buf.id (Net.delivery net ((dest + 1) mod Net.num_nodes net)) ]
      | Not_adjacent, _ ->
        [
          Buf.id
            (List.find
               (fun b ->
                 match Buf.kind b with Buf.Channel { src; _ } -> src <> head | _ -> false)
               (Array.to_list (Net.buffers net)));
        ]
      | _ -> [ Buf.id (Net.injection net 0) ]
    in
    { algo with
      Algo.route =
        (fun net b ~dest:d ->
          let r = algo.Algo.route net b ~dest:d in
          if at b d then r @ extra r else r) }

let planted_hits = ref (0, 0) (* reachable, unreachable *)

let prop_planted_fault =
  QCheck.Test.make ~name:"a planted fault is refused iff its state is reachable"
    ~count:300 QCheck.small_nat (fun seed ->
      let rng = Dfr_util.Prng.create (32_000 + seed) in
      let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:8) in
      QCheck.assume (Algo.validate algo net = Ok ());
      let states =
        List.concat_map
          (fun b ->
            List.filter_map
              (fun dest -> if routed b ~dest then Some (Buf.id b, dest) else None)
              (List.init (Net.num_nodes net) Fun.id))
          (Array.to_list (Net.buffers net))
      in
      let buf, dest = Dfr_util.Prng.pick rng states in
      let fault = Dfr_util.Prng.pick rng (faults net ~buf) in
      let bad = plant algo net ~buf ~dest fault in
      let sweep =
        match Algo.validate bad net with
        | Error msg -> msg
        | Ok () -> QCheck.Test.fail_report "the sweep missed the planted fault"
      in
      let reachable = reference_reachable net algo ~buf ~dest in
      let r, u = !planted_hits in
      planted_hits := if reachable then (r + 1, u) else (r, u + 1);
      match State_space.build net bad with
      | _ -> not reachable
      | exception Invalid_argument msg ->
        reachable && msg = "State_space.build: " ^ sweep)

let test_planted_faults () =
  planted_hits := (0, 0);
  QCheck.Test.check_exn prop_planted_fault;
  let r, u = !planted_hits in
  check Alcotest.bool
    (Printf.sprintf "both outcomes planted (%d reachable, %d unreachable)" r u)
    true
    (r > 0 && u > 0)

(* (b) the predicate the BFS runs on every state it routes: on a
   generated relation with one planted fault, at every routed state,
   [Algo.state_ok] is false exactly where [Algo.state_problems] reports
   something, the planted state included *)
let prop_state_ok_iff_problems =
  QCheck.Test.make ~name:"the contract predicate fails exactly where problems are found"
    ~count:200 QCheck.small_nat (fun seed ->
      let rng = Dfr_util.Prng.create (36_000 + seed) in
      let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:8) in
      let states =
        List.concat_map
          (fun b ->
            List.filter_map
              (fun dest -> if routed b ~dest then Some (Buf.id b, dest) else None)
              (List.init (Net.num_nodes net) Fun.id))
          (Array.to_list (Net.buffers net))
      in
      let buf, dest = Dfr_util.Prng.pick rng states in
      let bad = plant algo net ~buf ~dest (Dfr_util.Prng.pick rng (faults net ~buf)) in
      let ok (buf, dest) =
        let b = Net.buffer net buf in
        let outputs = bad.Algo.route net b ~dest and waits = bad.Algo.waits net b ~dest in
        let reduced_waits = Option.map (fun rw -> rw net b ~dest) bad.Algo.reduced_waits in
        let ok = Algo.state_ok net b ~dest ~outputs ~waits ~reduced_waits in
        if ok <> (Algo.state_problems net b ~dest ~outputs ~waits ~reduced_waits = []) then
          QCheck.Test.fail_reportf "state (%d, %d): the predicate says %b" buf dest ok;
        ok
      in
      List.iter (fun st -> ignore (ok st : bool)) states;
      not (ok (buf, dest)))

(* (b) order: with every routed state malformed (its first output
   repeated), the rejection is the sweep's message over exactly the
   reachable states, in the sweep's (buffer, dest) order, whatever the
   domain count *)
let test_rejection_order () =
  Dfr_util.Domain_pool.set_cap (Some 4);
  Fun.protect ~finally:(fun () -> Dfr_util.Domain_pool.set_cap None) @@ fun () ->
  List.iter
    (fun name ->
      let e = Option.get (Registry.find name) in
      let net = Registry.network_for e None in
      let algo = e.Registry.algo in
      let reachable = reference_reachable net algo in
      let dup_where keep =
        {
          algo with
          Algo.route =
            (fun net b ~dest ->
              match algo.Algo.route net b ~dest with
              | o :: _ as r when keep b ~dest -> r @ [ o ]
              | r -> r);
        }
      in
      let everywhere = dup_where (fun _ ~dest:_ -> true) in
      let sweep_everywhere = Algo.validate everywhere net in
      let sweep_reachable =
        Algo.validate (dup_where (fun b ~dest -> reachable ~buf:(Buf.id b) ~dest)) net
      in
      check Alcotest.bool (name ^ ": unreachable states are malformed too") true
        (sweep_everywhere <> sweep_reachable);
      let want =
        match sweep_reachable with
        | Error msg -> "State_space.build: " ^ msg
        | Ok () -> Alcotest.failf "%s: no reachable state was corrupted" name
      in
      List.iter
        (fun domains ->
          match State_space.build ~domains net everywhere with
          | _ -> Alcotest.failf "%s: accepted at domains=%d" name domains
          | exception Invalid_argument msg ->
            check Alcotest.string
              (Printf.sprintf "%s: message at domains=%d" name domains)
              want msg)
        [ 1; 2; 4 ])
    [ "ecube"; "dragonfly-minimal"; "two-buffer" ]

(* (c) a catalogue algorithm corrupted on one unreachable state: the
   sweep refuses it, the checker does not, and the report is the
   uncorrupted one *)
let test_unreachable_corruption_checks () =
  let corrupted = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let algo = e.Registry.algo in
      let space = State_space.build net algo in
      let unreachable =
        List.find_map
          (fun b ->
            List.find_map
              (fun dest ->
                if routed b ~dest && not (State_space.is_reachable space ~buf:(Buf.id b) ~dest)
                then Some (Buf.id b, dest)
                else None)
              (List.init (Net.num_nodes net) Fun.id))
          (Array.to_list (Net.buffers net))
      in
      Option.iter
        (fun (buf, dest) ->
          incr corrupted;
          let bad = plant algo net ~buf ~dest Injection_output in
          check Alcotest.bool (e.Registry.name ^ ": the sweep refuses it") true
            (Result.is_error (Algo.validate bad net));
          check Alcotest.string (e.Registry.name ^ ": uncorrupted report")
            (report_bytes net algo) (report_bytes net bad))
        unreachable)
    Registry.all;
  check Alcotest.bool "some catalogue entries have unreachable states" true
    (!corrupted > 0)

let suite =
  suite
  @ [
      Alcotest.test_case "accepted catalogue relations reproduce the goldens" `Quick
        test_validated_catalogue_same_reports;
      QCheck_alcotest.to_alcotest prop_validated_cases_same_table;
      QCheck_alcotest.to_alcotest prop_recorded_facts;
      Alcotest.test_case "planted faults refused iff reachable" `Quick
        test_planted_faults;
      QCheck_alcotest.to_alcotest prop_state_ok_iff_problems;
      Alcotest.test_case "rejections list reachable problems in sweep order" `Quick
        test_rejection_order;
      Alcotest.test_case "corruption on an unreachable state still checks" `Quick
        test_unreachable_corruption_checks;
    ]

(* ---------------- Theorem-3 search = brute force ---------------- *)

(* Reduction.search answers Reduced iff some wait-connected subset of the
   waiting rule has no True Cycle.  Brute force decides that over every
   subset of the removable entries, those of states with at least two
   waits.  Each seed draws generated cases until one reaches the search
   the way the checker does (wait-connected, no stuck state, a True Cycle
   in the full BWG, no knot) with 1 to 12 removable entries. *)

(* (buf, dest, index into the state's waits) *)
let removable_entries space =
  let acc = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      match Slice_lists.waits space ~buf ~dest with
      | _ :: _ :: _ as ws -> List.iteri (fun i _ -> acc := (buf, dest, i) :: !acc) ws
      | _ -> ());
  Array.of_list (List.rev !acc)

let true_cycle_free bwg =
  match Reduction.true_cycle_status bwg with
  | Ok None -> true
  | Ok (Some _) -> false
  | Error reason -> QCheck.Test.fail_reportf "probe inconclusive: %s" reason

let search_case seed =
  let rng = Dfr_util.Prng.create (53_000 + seed) in
  let rec draw n =
    if n = 0 then None
    else
      let net, algo = Case.to_net_algo (Gen.case rng ~max_nodes:9) in
      match State_space.build net algo with
      | exception Invalid_argument _ -> draw (n - 1)
      | space ->
        let full = Bwg.build space in
        let entries = removable_entries space in
        if
          State_space.stuck_states space = []
          && Bwg.unconnected_states full = []
          && Array.length entries >= 1
          && Array.length entries <= 12
          && Option.is_none (Deadlock_config.find space)
          && (match Reduction.true_cycle_status full with Ok (Some _) -> true | _ -> false)
        then Some (space, entries)
        else draw (n - 1)
  in
  draw 300

let brute_force_free space entries =
  let k = Array.length entries in
  let rec go mask =
    mask < 1 lsl k
    &&
    let out = Hashtbl.create 16 in
    Array.iteri
      (fun i e -> if mask land (1 lsl i) <> 0 then Hashtbl.replace out e ())
      entries;
    let wait_sets ~buf ~dest =
      List.filteri
        (fun i _ -> not (Hashtbl.mem out (buf, dest, i)))
        (Slice_lists.waits space ~buf ~dest)
    in
    let connected =
      Array.for_all (fun (buf, dest, _) -> wait_sets ~buf ~dest <> []) entries
    in
    (connected && true_cycle_free (Cold.bwg ~wait_sets space)) || go (mask + 1)
  in
  go 0

let prop_search_exact =
  QCheck.Test.make ~name:"Reduction.search finds a BWG' iff brute force does"
    ~count:40 (QCheck.int_bound 999_999) (fun seed ->
      match search_case seed with
      | None -> true
      | Some (space, entries) -> (
        let exists = brute_force_free space entries in
        match fst (Reduction.search (Bwg.session (Bwg.build space))) with
        | Reduction.Reduced removed ->
          let rebuilt =
            Cold.bwg space ~wait_sets:(fun ~buf ~dest ->
                List.filter
                  (fun target -> not (List.mem { Reduction.head = buf; dest; target } removed))
                  (Slice_lists.waits space ~buf ~dest))
          in
          if not exists then
            QCheck.Test.fail_report "search found a BWG' brute force did not";
          Bwg.is_wait_connected rebuilt && true_cycle_free rebuilt
        | Reduction.Impossible -> not exists
        | Reduction.Gave_up reason -> QCheck.Test.fail_reportf "search gave up: %s" reason))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_search_exact ]

(* ---------------- iter_reachable's counting pass ---------------- *)

(* the visit order is the slices' states sorted by key, buf * nodes + dest *)
let same_visit_order label space =
  let nn = State_space.num_nodes space in
  let want =
    List.sort compare
      (List.concat_map
         (fun dest ->
           List.map
             (fun buf -> (buf * nn) + dest)
             (Array.to_list (State_space.dest_view space ~dest).State_space.view_bufs))
         (List.init nn Fun.id))
  in
  let got = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest -> got := ((buf * nn) + dest) :: !got);
  check Alcotest.(list int) (label ^ ": visit order") want (List.rev !got);
  check Alcotest.int (label ^ ": num_states") (List.length want)
    (State_space.num_states space)

let test_visit_order () =
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      same_visit_order e.Registry.name (State_space.build net e.Registry.algo))
    Registry.all;
  List.iter
    (fun seed ->
      let net, algo = Case.to_net_algo (Gen.case (Dfr_util.Prng.create seed) ~max_nodes:8) in
      match State_space.build net algo with
      | exception Invalid_argument _ -> ()
      | space -> same_visit_order (Printf.sprintf "seed %d" seed) space)
    (List.init 40 (fun i -> 9100 + i))

let suite =
  suite
  @ [ Alcotest.test_case "iter_reachable visits sorted state keys" `Quick test_visit_order ]

(* ---------------- the cycle engine against the list reference on BWGs ---------------- *)

(* [Bwg.fold_cycles] reads the adjacency in insertion order; the reference
   gets the same rows sorted *)
let engine_agrees ~limits ~stop_at bwg =
  let g = Bwg.graph bwg in
  let row v = Array.of_list (List.sort compare (Dfr_graph.Digraph.succ g v)) in
  Cycles_ref.agrees ~limits ~stop_at ~n:(Dfr_graph.Digraph.num_vertices g) ~row
    (fun f init -> Bwg.fold_cycles ~limits bwg f init)

let prop_engine_on_generated_bwgs =
  QCheck.Test.make ~name:"cycle engine = list reference on generated BWGs" ~count:60
    QCheck.(
      quad (int_range 0 1_000_000) (int_range 1 2_000) (int_range 1 12) (int_range 0 300))
    (fun (seed, max_cycles, max_length, stop_at) ->
      let net, algo =
        Case.to_net_algo (Gen.case (Dfr_util.Prng.create (9_300_000 + seed)) ~max_nodes:9)
      in
      match State_space.build net algo with
      | exception Invalid_argument _ -> true
      | space ->
        let bwg = Bwg.build space in
        engine_agrees ~limits:{ Dfr_graph.Cycles.max_cycles; max_length } ~stop_at bwg
        && engine_agrees ~limits:Dfr_graph.Cycles.default_limits ~stop_at:0 bwg)

(* two-buffer on mesh:6x6: the full scan fills the default 10,000-cycle
   cap; also under a binding length cap, and stopped part way *)
let test_engine_on_two_buffer () =
  let e = Option.get (Registry.find "two-buffer") in
  let topo = Result.get_ok (Dfr_topology.Topology.of_string "mesh:6x6") in
  let bwg = Bwg.build (State_space.build (Registry.network_for e (Some topo)) e.Registry.algo) in
  let default = Dfr_graph.Cycles.default_limits in
  check Alcotest.int "the scan fills the cap" default.Dfr_graph.Cycles.max_cycles
    (fst
       (Bwg.fold_cycles bwg (fun _ k -> Dfr_graph.Cycles.Continue (k + 1)) 0));
  List.iter
    (fun (limits, stop_at) ->
      check Alcotest.bool
        (Printf.sprintf "max_length %d, stop at %d" limits.Dfr_graph.Cycles.max_length
           stop_at)
        true
        (engine_agrees ~limits ~stop_at bwg))
    [
      (default, 0);
      (default, 4_321);
      ({ default with max_length = 20 }, 0);
      ({ default with max_length = 12 }, 777);
    ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_engine_on_generated_bwgs;
      Alcotest.test_case "cycle engine = list reference on two-buffer mesh:6x6" `Quick
        test_engine_on_two_buffer;
    ]
