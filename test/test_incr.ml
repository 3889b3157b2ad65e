(* Incremental re-checking (Incr + Diff): the acceptance bar is byte
   equality — every incremental verdict must render to exactly the bytes a
   cold check of the edited spec produces, across both the fast
   (counts-rendered Theorem 1) and replay paths.

   The core property test drives randomized chains of line-level edits of
   the canonical reprint (the same per-(buffer, dest) clauses a user would
   edit), recompiles, diffs against the session's current spec, applies
   the delta, and confronts the incremental report with a cold one. *)

open Dfr_network
open Dfr_routing
open Dfr_core
open Dfr_spec
module Obs = Dfr_obs.Obs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let spec_dir = Filename.concat ".." "examples/specs"

let load name =
  match Spec.load_file (Filename.concat spec_dir name) with
  | Ok s -> s
  | Error e -> Alcotest.fail (name ^ ": " ^ Spec.error_to_string e)

(* cold reference: full pipeline on the edited instance *)
let cold net algo =
  let report = Checker.check net algo in
  ( Dfr_util.Json.to_string (Report_json.of_outcome net algo report),
    Report_json.exit_code report.Checker.verdict )

let print_spec net algo =
  match Printer.to_string net algo with
  | Ok txt -> txt
  | Error msg -> Alcotest.fail ("unprintable: " ^ msg)

let validated (s : Spec.t) = s.Spec.elaborated.Elaborate.spec

(* ---------------- line-level edit generator ---------------- *)

(* "wait in c0_1_0 to 3 : a b" -> ("wait in c0_1_0 to 3", ["a"; "b"]) *)
let split_rule_line l =
  match String.index_opt l ':' with
  | None -> None
  | Some i ->
    let lhs = String.trim (String.sub l 0 i) in
    let rhs = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
    let targets = List.filter (fun s -> s <> "") (String.split_on_char ' ' rhs) in
    Some (lhs, targets)

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

(* One random edit of the reprint, or None when no clause is editable:
   drop one target from a multi-target wait (a wait-entry removal),
   restore one route target a wait lacks, at its place in the route (a
   restoration, refilling an emptied `none' wait too), drop a whole wait
   clause (reverting to the route default), empty a wait to `none'
   (driving the instance wait-unconnected), or tighten a defaulted wait to
   a single route target.  All stay inside wait ⊆ route, so they
   recompile; edits of the route structure itself are exercised by
   [`Add_wait]/[`Drop_wait] changing which rules exist. *)
let try_edit rng lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let candidates = ref [] in
  for i = 0 to n - 1 do
    let l = arr.(i) in
    if starts_with "wait " l then (
      match split_rule_line l with
      | Some (lhs, targets) ->
        let waits = if targets = [ "none" ] then [] else targets in
        (* the printer puts a wait clause right after its route clause *)
        let route_lhs = "route" ^ String.sub lhs 4 (String.length lhs - 4) in
        (match if i > 0 then split_rule_line arr.(i - 1) else None with
        | Some (rlhs, route) when rlhs = route_lhs ->
          let missing = List.filter (fun t -> not (List.mem t waits)) route in
          if missing <> [] then
            candidates := `Restore_target (i, route, missing) :: !candidates
        | _ -> ());
        if waits <> [] then begin
          if List.length waits >= 2 then
            candidates := `Drop_target i :: !candidates;
          candidates := `Drop_wait i :: `Set_none i :: !candidates
        end
        else candidates := `Drop_wait i :: !candidates
      | None -> ())
    else if starts_with "route " l then
      match split_rule_line l with
      | Some (lhs, (_ :: _ as targets)) ->
        let wait_lhs = "wait" ^ String.sub lhs 5 (String.length lhs - 5) in
        let has_wait =
          i + 1 < n
          &&
          match split_rule_line arr.(i + 1) with
          | Some (lhs2, _) -> lhs2 = wait_lhs
          | None -> false
        in
        if not has_wait then
          candidates := `Add_wait (i, wait_lhs, targets) :: !candidates
      | _ -> ()
  done;
  match !candidates with
  | [] -> None
  | cs ->
    Some
      (match Dfr_util.Prng.pick rng cs with
      | `Drop_target i ->
        let lhs, targets = Option.get (split_rule_line arr.(i)) in
        let k = Dfr_util.Prng.int rng (List.length targets) in
        let targets' = List.filteri (fun j _ -> j <> k) targets in
        Array.to_list
          (Array.mapi
             (fun j l ->
               if j = i then lhs ^ " : " ^ String.concat " " targets' else l)
             arr)
      | `Restore_target (i, route, missing) ->
        let lhs, targets = Option.get (split_rule_line arr.(i)) in
        let t = Dfr_util.Prng.pick rng missing in
        let restored = List.filter (fun r -> r = t || List.mem r targets) route in
        Array.to_list
          (Array.mapi
             (fun j l ->
               if j = i then lhs ^ " : " ^ String.concat " " restored else l)
             arr)
      | `Set_none i ->
        let lhs, _ = Option.get (split_rule_line arr.(i)) in
        Array.to_list
          (Array.mapi (fun j l -> if j = i then lhs ^ " : none" else l) arr)
      | `Drop_wait i -> List.filteri (fun j _ -> j <> i) (Array.to_list arr)
      | `Add_wait (i, wait_lhs, targets) ->
        let t = Dfr_util.Prng.pick rng targets in
        List.concat
          (Array.to_list
             (Array.mapi
                (fun j l ->
                  if j = i then [ l; wait_lhs ^ " : " ^ t ] else [ l ])
                arr)))

let corpus =
  [
    "mesh-minimal.dfr";
    "dragonfly-small.dfr";
    "updown.dfr";
    "fullmesh.dfr";
    "incoherent.dfr";
  ]

(* A corpus spec re-anchored in canonical-reprint space: corpus files may
   declare `topology`/`vcs` shorthands the reprint normalizes away into
   explicit channels, and the chain's diffs must compare specs in one
   form.  The reprint round-trip preserves the elaborated relation (pinned
   by the differential suite). *)
let load_canonical name =
  let s = load name in
  match Spec.compile_string (print_spec s.Spec.net s.Spec.algo) with
  | Ok s' -> s'
  | Error e -> Alcotest.fail (name ^ " reprint: " ^ Spec.error_to_string e)

(* One property case: a session over a random corpus spec, three chained
   random edits (each possibly multi-line), byte-compared against cold at
   every step. *)
let edit_replay_case seed =
  let rng = Dfr_util.Prng.create seed in
  let base = load_canonical (Dfr_util.Prng.pick rng corpus) in
  let session, r0 = Incr.create base.Spec.net base.Spec.algo in
  let cold0, code0 = cold base.Spec.net base.Spec.algo in
  check Alcotest.string "create report = cold" cold0
    (Dfr_util.Json.to_string r0.Incr.report);
  check Alcotest.int "create exit = cold" code0 r0.Incr.exit_code;
  let cur = ref base in
  for _step = 1 to 3 do
    let lines =
      String.split_on_char '\n'
        (print_spec (Incr.net session) (Incr.algo session))
    in
    let lines =
      match try_edit rng lines with None -> lines | Some ls -> ls
    in
    let lines =
      if Dfr_util.Prng.bool rng then
        match try_edit rng lines with None -> lines | Some ls -> ls
      else lines
    in
    match Spec.compile_string (String.concat "\n" lines) with
    | Error _ -> () (* an edit collided into an invalid spec; skip the step *)
    | Ok edited -> (
      match Diff.diff (validated !cur) (validated edited) with
      | Diff.Incompatible what ->
        Alcotest.failf "unexpected incompatibility after a clause edit: %s" what
      | Diff.Frontier { dirty; _ } ->
        let res = Incr.update session edited.Spec.algo ~dirty in
        let cold_s, cold_c = cold edited.Spec.net edited.Spec.algo in
        check Alcotest.string "incremental report = cold" cold_s
          (Dfr_util.Json.to_string res.Incr.report);
        check Alcotest.int "incremental exit = cold" cold_c res.Incr.exit_code;
        cur := edited)
  done

let edit_replay =
  QCheck.Test.make ~name:"edit replay is bit-for-bit cold" ~count:25
    QCheck.small_nat
    (fun seed ->
      edit_replay_case seed;
      true)

(* ---------------- diff frontier ---------------- *)

let test_diff_identity () =
  let s = load "mesh-minimal.dfr" in
  match Diff.diff (validated s) (validated s) with
  | Diff.Frontier { dirty = []; total } ->
    check Alcotest.int "total = nodes" (Net.num_nodes s.Spec.net) total
  | Diff.Frontier { dirty; _ } ->
    Alcotest.failf "identity diff dirtied %d destinations" (List.length dirty)
  | Diff.Incompatible what -> Alcotest.fail ("identity diff incompatible: " ^ what)

(* a single explicit-destination clause edit must dirty exactly that
   destination: pin an explicit wait clause under the first route line *)
let test_diff_single_dest () =
  let s = load_canonical "dragonfly-small.dfr" in
  let lines =
    String.split_on_char '\n' (print_spec s.Spec.net s.Spec.algo)
  in
  let target =
    List.find_map
      (fun l ->
        if starts_with "route " l then
          match split_rule_line l with
          | Some (lhs, t :: _) -> (
            match List.rev (String.split_on_char ' ' lhs) with
            | dest :: _ ->
              Some (l, "wait" ^ String.sub lhs 5 (String.length lhs - 5), t,
                    int_of_string dest)
            | [] -> None)
          | _ -> None
        else None)
      lines
  in
  match target with
  | None -> Alcotest.fail "corpus has no route clause"
  | Some (line, wait_lhs, t, dest) -> (
    let lines' =
      List.concat_map
        (fun l -> if l = line then [ l; wait_lhs ^ " : " ^ t ] else [ l ])
        lines
    in
    let edited =
      match Spec.compile_string (String.concat "\n" lines') with
      | Ok e -> e
      | Error e -> Alcotest.fail (Spec.error_to_string e)
    in
    match Diff.diff (validated s) (validated edited) with
    | Diff.Frontier { dirty; _ } ->
      check (Alcotest.list Alcotest.int) "dirty frontier" [ dest ] dirty
    | Diff.Incompatible what -> Alcotest.fail ("incompatible: " ^ what))

let test_diff_incompatible () =
  let a = load_canonical "mesh-minimal.dfr" in
  let b = load "dragonfly-small.dfr" in
  (match Diff.diff (validated a) (validated b) with
  | Diff.Incompatible _ -> ()
  | Diff.Frontier _ -> Alcotest.fail "different networks must be incompatible");
  (* same spec with the switching mode flipped *)
  let flipped =
    String.split_on_char '\n' (print_spec a.Spec.net a.Spec.algo)
    |> List.map (fun l ->
           if starts_with "switching " l then
             if l = "switching wormhole" then "switching saf"
             else "switching wormhole"
           else l)
    |> String.concat "\n"
  in
  match Spec.compile_string flipped with
  | Error _ -> () (* rejected outright is fine too *)
  | Ok b' -> (
    match Diff.diff (validated a) (validated b') with
    | Diff.Incompatible _ -> ()
    | Diff.Frontier _ -> Alcotest.fail "switching change must be incompatible")

(* ---------------- paths ---------------- *)

(* a wait-narrowing edit on an acyclic-BWG instance stays on the fast
   path: no BWG is rebuilt, and the report still matches cold bytes.
   Scan the registry for a Theorem-1 instance that still has a
   multi-target wait set to narrow (escape-channel designs like duato
   wait on a single channel everywhere, so this is not every free
   instance). *)
let multi_wait_state session =
  let found = ref None in
  let nn = State_space.num_nodes (Incr.space session) in
  for dest = 0 to nn - 1 do
    if !found = None then
      let v = State_space.dest_view (Incr.space session) ~dest in
      Array.iteri
        (fun i buf ->
          if !found = None && List.length (State_space.row v.State_space.view_wts i) >= 2 then
            found := Some (buf, dest))
        v.State_space.view_bufs
  done;
  !found

let test_fast_path_wait_edit () =
  let candidates =
    [ "double-y"; "hop-class"; "kntree-updown"; "dragonfly-minimal"; "duato" ]
  in
  let picked =
    List.find_map
      (fun name ->
        let e = Option.get (Registry.find name) in
        let net = Registry.network_for e (Registry.default_topology e) in
        let algo = { e.Registry.algo with Algo.reduced_waits = None } in
        let session, r0 = Incr.create net algo in
        if r0.Incr.path = Incr.Fast then
          Option.map
            (fun (buf, dest) -> (net, algo, session, buf, dest))
            (multi_wait_state session)
        else None)
      candidates
  in
  match picked with
  | None -> Alcotest.fail "no Theorem-1 registry instance with adaptive waits"
  | Some (net, algo, session, ebuf, edest) ->
    let nn = State_space.num_nodes (Incr.space session) in
    let algo' =
      Algo.with_waits algo ~name:algo.Algo.name (fun net b ~dest ->
          let ws = algo.Algo.waits net b ~dest in
          if Buf.id b = ebuf && dest = edest then [ List.hd ws ] else ws)
    in
    let res = Incr.update session algo' ~dirty:[ edest ] in
    check Alcotest.bool "edit is fast" true (res.Incr.path = Incr.Fast);
    check Alcotest.int "one dirty dest" 1 res.Incr.dirty_dests;
    check Alcotest.int "rest reused" (nn - 1) res.Incr.reused_dests;
    let cold_s, cold_c = cold net algo' in
    check Alcotest.string "fast report = cold" cold_s
      (Dfr_util.Json.to_string res.Incr.report);
    check Alcotest.int "fast exit = cold" cold_c res.Incr.exit_code;
    let c = Incr.counters session in
    check Alcotest.int "wait-only edit was patched" 1 c.Incr.patched_dests

(* a deadlocked instance takes the replay path and still matches cold *)
let test_replay_path_deadlock () =
  let e = Option.get (Registry.find "efa-relaxed") in
  let net = Registry.network_for e (Registry.default_topology e) in
  let algo = { e.Registry.algo with Algo.reduced_waits = None } in
  let session, r0 = Incr.create net algo in
  check Alcotest.bool "efa-relaxed base is replay" true
    (r0.Incr.path = Incr.Replay);
  let cold_s, cold_c = cold net algo in
  check Alcotest.string "replay report = cold" cold_s
    (Dfr_util.Json.to_string r0.Incr.report);
  check Alcotest.int "replay exit = cold" cold_c r0.Incr.exit_code;
  (* identity update: still cold bytes, no destinations dirty *)
  let res = Incr.update session algo ~dirty:[] in
  check Alcotest.string "identity update = cold" cold_s
    (Dfr_util.Json.to_string res.Incr.report);
  check Alcotest.int "no dirty dests" 0 res.Incr.dirty_dests

(* every wait entry of the session's space reads live *)
let all_live session =
  let space = Incr.space session and live = ref true in
  State_space.iter_reachable space (fun ~buf ~dest ->
      List.iter
        (fun w -> live := !live && Bwg.Session.is_live (Incr.session session) ~buf ~dest w)
        (Slice_lists.waits space ~buf ~dest));
  !live

(* a Theorem-3 instance: the hintless two-buffer design is decided by
   the search on the replay path, before and after a wait edit, on the
   session's live BWG, and renders the cold bytes both times.  The
   search probes that session, so the edit runs no closure beyond the
   destinations it captures again (a wait narrowing keeps its groups),
   and hands it back with every entry live. *)
let test_replay_path_reduced () =
  let e = Option.get (Registry.find "two-buffer") in
  let net = Registry.network_for e (Registry.default_topology e) in
  let algo = { e.Registry.algo with Algo.reduced_waits = None } in
  let searched algo =
    match (Checker.check net algo).Checker.verdict with
    | Checker.Deadlock_free (Checker.Reduced_bwg { via_hint = false; _ }) -> true
    | _ -> false
  in
  let session, r0 = Incr.create net algo in
  check Alcotest.bool "cold verdict is a searched BWG'" true (searched algo);
  check Alcotest.bool "create is replay" true (r0.Incr.path = Incr.Replay);
  check Alcotest.string "create report = cold" (fst (cold net algo))
    (Dfr_util.Json.to_string r0.Incr.report);
  let buf, dest = Option.get (multi_wait_state session) in
  let algo' =
    Algo.with_waits algo ~name:algo.Algo.name (fun net b ~dest:d ->
        let ws = algo.Algo.waits net b ~dest:d in
        if Buf.id b = buf && d = dest then [ List.hd ws ] else ws)
  in
  check Alcotest.bool "create leaves every entry live" true (all_live session);
  Obs.enable ();
  let res, closures =
    Fun.protect ~finally:Obs.disable (fun () ->
        let res = Incr.update session algo' ~dirty:[ dest ] in
        (res, List.assoc_opt "bwg.closure" (Obs.span_totals ())))
  in
  check Alcotest.int "the edit captures only the destinations it re-emits"
    (Incr.counters session).Incr.reemitted_dests
    (match closures with Some (n, _) -> n | None -> 0);
  check Alcotest.bool "the edit leaves every entry live" true (all_live session);
  check Alcotest.bool "edited cold verdict is a searched BWG'" true (searched algo');
  check Alcotest.bool "edit is replay" true (res.Incr.path = Incr.Replay);
  let cold_s, cold_c = cold net algo' in
  check Alcotest.string "replay report = cold" cold_s
    (Dfr_util.Json.to_string res.Incr.report);
  check Alcotest.int "replay exit = cold" cold_c res.Incr.exit_code;
  check Alcotest.int "two replays" 2 (Incr.counters session).Incr.replays

(* out-of-range dirty destinations are rejected *)
let test_update_bad_dest () =
  let e = Option.get (Registry.find "ecube") in
  let net = Registry.network_for e (Registry.default_topology e) in
  let algo = { e.Registry.algo with Algo.reduced_waits = None } in
  let session, _ = Incr.create net algo in
  Alcotest.check_raises "negative dest"
    (Invalid_argument "Incr.update: destination out of range") (fun () ->
      ignore (Incr.update session algo ~dirty:[ -1 ]))

(* a refused edit leaves the session as it was: a malformed
   single-destination edit on a reachable state raises the cold build's
   message, no counter moves, and the next valid edit still renders cold
   bytes *)
let test_refused_edit_untouched () =
  let e = Option.get (Registry.find "double-y") in
  let net = Registry.network_for e (Registry.default_topology e) in
  let algo = { e.Registry.algo with Algo.reduced_waits = None } in
  let session, _ = Incr.create net algo in
  let before = Incr.counters session in
  let edest, ebuf =
    match multi_wait_state session with
    | Some (buf, dest) -> (dest, buf)
    | None -> Alcotest.fail "double-y has no multi-wait state"
  in
  let at b ~dest = Buf.id b = ebuf && dest = edest in
  (* the state's first output, repeated *)
  let bad =
    {
      algo with
      Algo.route =
        (fun net b ~dest ->
          let r = algo.Algo.route net b ~dest in
          if at b ~dest then r @ [ List.hd r ] else r);
    }
  in
  let cold_msg =
    match State_space.build net bad with
    | _ -> Alcotest.fail "a cold build accepts the malformed edit"
    | exception Invalid_argument msg -> msg
  in
  Alcotest.check_raises "update raises the cold message" (Invalid_argument cold_msg)
    (fun () -> ignore (Incr.update session bad ~dirty:[ edest ]));
  (* a hint the session was built without is refused the same way *)
  (match
     Incr.update session
       { algo with Algo.reduced_waits = Some algo.Algo.waits }
       ~dirty:[ edest ]
   with
  | _ -> Alcotest.fail "a hint introduction was accepted"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "counters unchanged" true (Incr.counters session = before);
  check Alcotest.bool "algorithm unchanged" true (Incr.algo session == algo);
  let narrowed =
    Algo.with_waits algo ~name:algo.Algo.name (fun net b ~dest ->
        let ws = algo.Algo.waits net b ~dest in
        if at b ~dest then [ List.hd ws ] else ws)
  in
  let res = Incr.update session narrowed ~dirty:[ edest ] in
  let cold_s, cold_c = cold net narrowed in
  check Alcotest.string "next edit = cold" cold_s (Dfr_util.Json.to_string res.Incr.report);
  check Alcotest.int "next edit exit = cold" cold_c res.Incr.exit_code;
  check Alcotest.int "one update counted" (before.Incr.updates + 1)
    (Incr.counters session).Incr.updates

(* ---------------- one-pass diff vs the all-pairs reference ---------------- *)

(* The frontier as Diff computed it before it went one pass: for every
   destination, filter all the rules of each side down to those
   applicable to it and compare the two key lists. *)
let reference_diff base edit =
  match Diff.diff base edit with
  | Diff.Incompatible _ as skeleton -> skeleton
  | Diff.Frontier { total; _ } ->
    let applicable ~dest v =
      List.filter_map
        (fun (r : Validate.rule) ->
          match r.Validate.dst with
          | Some d when d <> dest -> None
          | _ -> Some (r.Validate.kind, r.Validate.sel, r.Validate.outs))
        (Validate.rules v)
    in
    Diff.Frontier
      {
        dirty =
          List.filter
            (fun dest -> applicable ~dest base <> applicable ~dest edit)
            (List.init total Fun.id);
        total;
      }

(* One line edit of a corpus spec as written, wildcard rules included:
   drop, repeat or move a rule line, or turn its [to] clause from one
   destination to [*] or back. *)
let rule_line_edit rng lines =
  let module P = Dfr_util.Prng in
  let arr = Array.of_list lines in
  let rules =
    List.filter
      (fun i -> starts_with "route " arr.(i) || starts_with "wait " arr.(i))
      (List.init (Array.length arr) Fun.id)
  in
  if rules = [] then lines
  else
    let i = P.pick rng rules in
    let without = List.filteri (fun j _ -> j <> i) lines in
    match P.int rng 4 with
    | 0 -> without
    | 1 -> List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines)
    | 2 ->
      let k = P.int rng (List.length without + 1) in
      List.filteri (fun j _ -> j < k) without @ (arr.(i) :: List.filteri (fun j _ -> j >= k) without)
    | _ -> (
      match String.split_on_char ' ' arr.(i) with
      | kind :: sel :: arg :: "to" :: dest :: rest ->
        let dest = if dest = "*" then string_of_int (P.int rng 4) else "*" in
        List.mapi
          (fun j l -> if j = i then String.concat " " (kind :: sel :: arg :: "to" :: dest :: rest) else l)
          lines
      | _ -> without)

let test_diff_matches_reference () =
  let compared = ref 0 and dirtied = ref 0 in
  let same what base edit =
    let show = function
      | Diff.Incompatible w -> "incompatible: " ^ w
      | Diff.Frontier { dirty; total } ->
        Printf.sprintf "%d of %d: %s" (List.length dirty) total
          (String.concat " " (List.map string_of_int dirty))
    in
    let got = Diff.diff (validated base) (validated edit)
    and want = reference_diff (validated base) (validated edit) in
    if got <> want then Alcotest.failf "%s: one-pass %s, reference %s" what (show got) (show want);
    incr compared;
    match got with Diff.Frontier { dirty = _ :: _; _ } -> incr dirtied | _ -> ()
  in
  for seed = 0 to 59 do
    let rng = Dfr_util.Prng.create seed in
    let name = Dfr_util.Prng.pick rng corpus in
    (* the reprint edit chains of the replay property, one pair per step *)
    let cur = ref (load_canonical name) in
    for step = 1 to 3 do
      let lines = String.split_on_char '\n' (print_spec !cur.Spec.net !cur.Spec.algo) in
      match try_edit rng lines with
      | None -> ()
      | Some ls -> (
        match Spec.compile_string (String.concat "\n" ls) with
        | Error _ -> ()
        | Ok edited ->
          same (Printf.sprintf "seed %d step %d (%s reprint)" seed step name) !cur edited;
          cur := edited)
    done;
    (* the spec as written, whose wildcard rules merge into every
       destination's sequence *)
    let text = In_channel.with_open_bin (Filename.concat spec_dir name) In_channel.input_all in
    let base = load name in
    let lines = rule_line_edit rng (String.split_on_char '\n' text) in
    let lines = if Dfr_util.Prng.bool rng then rule_line_edit rng lines else lines in
    match Spec.compile_string (String.concat "\n" lines) with
    | Error _ -> ()
    | Ok edited -> same (Printf.sprintf "seed %d (%s as written)" seed name) base edited
  done;
  check Alcotest.bool "the corpus dirties some destinations" true (!dirtied > 0);
  check Alcotest.bool "most pairs compile" true (!compared > 60)

let suite =
  [
    Alcotest.test_case "diff identity" `Quick test_diff_identity;
    Alcotest.test_case "diff single dest" `Quick test_diff_single_dest;
    Alcotest.test_case "diff incompatible" `Quick test_diff_incompatible;
    Alcotest.test_case "fast path wait edit" `Quick test_fast_path_wait_edit;
    Alcotest.test_case "replay path deadlock" `Quick test_replay_path_deadlock;
    Alcotest.test_case "replay path reaches a searched BWG'" `Quick
      test_replay_path_reduced;
    Alcotest.test_case "update bad dest" `Quick test_update_bad_dest;
    Alcotest.test_case "refused edit leaves the session untouched" `Quick
      test_refused_edit_untouched;
    qtest edit_replay;
    Alcotest.test_case "one-pass diff = all-pairs reference" `Quick test_diff_matches_reference;
  ]
