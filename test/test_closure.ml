(* Differential test of the BWG construction against the definition.

   The reference is the construction read straight off §3 of the paper:
   for every reachable state (q1, dest), one DFS over the destination's
   full move graph finds every buffer the header can block in, and each
   such head contributes its waiting set, in rule order.  Bwg.dest_edges
   computes the same relation through destination-local SCC closures,
   and Bwg.build and a wait-set session (Bwg.Session) bucket the groups
   of those closures by occupied buffer and derive witness lists from
   them; they must agree with the reference on the emission sequence of
   every destination (the groups a session keeps), on the edge set and
   its first-emission order (a session's live BWG' on the set only), on
   every edge's witness list, and on how many witnesses the cap dropped,
   at every witness cap, domain count and closure layout.  Bwg.replay,
   the hash-indexed recorder, must agree with the same reference. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Obs = Dfr_obs.Obs
module Case = Dfr_fuzz.Case

let check = Alcotest.check

type emission = int * int * Bwg.witness

(* one DFS per (q1, dest) over the destination's moves, read off
   [State_space.outputs] in buffer ids, so the reference shares nothing
   with the slice's move graph; [~indirect:false] keeps q1 as its only
   head, as [Bwg.build ~indirect:false] does *)
let reference_dest_edges ?(indirect = true) ~wait_sets space ~dest : emission list =
  let wormhole = indirect && Net.switching (State_space.net space) = Net.Wormhole in
  let num_bufs = State_space.num_buffers space in
  let acc = ref [] in
  List.iter
    (fun q1 ->
      let heads =
        if not wormhole then [ q1 ]
        else begin
          let seen = Array.make num_bufs false in
          let rec dfs b =
            if not seen.(b) then begin
              seen.(b) <- true;
              List.iter dfs (State_space.outputs space ~buf:b ~dest)
            end
          in
          dfs q1;
          List.filter (fun b -> seen.(b)) (List.init num_bufs Fun.id)
        end
      in
      List.iter
        (fun head ->
          List.iter
            (fun w -> acc := (q1, w, { Bwg.dest; head }) :: !acc)
            (wait_sets ~buf:head ~dest))
        heads)
    (Array.to_list (State_space.dest_view space ~dest).State_space.view_bufs);
  List.rev !acc

(* The reference recorder: an edge enters on its first emission, keeps at
   most [cap] witnesses in emission order, and every later witness is a
   cap drop. *)
let reference_record ~cap num_bufs (emissions : emission list) =
  let wits = Hashtbl.create 64 in
  let succ = Array.make num_bufs [] in
  let capped = ref 0 in
  List.iter
    (fun (q1, q2, w) ->
      match Hashtbl.find_opt wits (q1, q2) with
      | None ->
        Hashtbl.replace wits (q1, q2) [ w ];
        succ.(q1) <- q2 :: succ.(q1)
      | Some ws ->
        if List.length ws < cap then Hashtbl.replace wits (q1, q2) (ws @ [ w ])
        else incr capped)
    emissions;
  (Array.map List.rev succ, wits, !capped)

(* [f ()] and the witnesses it dropped at the cap *)
let with_capped f =
  Obs.enable ();
  let bwg = f () in
  let capped =
    Option.value (List.assoc_opt "bwg.witnesses.capped" (Obs.counters ())) ~default:0
  in
  Obs.disable ();
  (bwg, capped)

let pp_emission (q1, q2, (w : Bwg.witness)) =
  Printf.sprintf "%d->%d (dest %d, head %d)" q1 q2 w.Bwg.dest w.Bwg.head

(* the pool clamps workers to the core count; force real fan-out *)
let with_cap n f =
  Dfr_util.Domain_pool.set_cap (Some n);
  Fun.protect ~finally:(fun () -> Dfr_util.Domain_pool.set_cap None) f

(* Every BWG of [space] under [wait_sets] (default: the algorithm's
   rule) against [reference_record] of the reference emissions, at
   witness caps 1, 2 and 32, and 0, where the recorder still keeps each
   edge's first witness.  The full rule is [Bwg.build]'s, at 1 and 4
   domains with hybrid and dense closure rows; a custom one is a
   session's snapshot.  Each of those, and [Bwg.replay] of the reference
   emissions, must give the reference's rows in order, every witness
   list and the capped count; a session's live BWG', rows as sets and
   every witness list.  [~indirect:false] checks the build's ablation
   against the direct reference, which nothing else builds. *)
let agree ~label ?wait_sets ?(indirect = true) space =
  let rules =
    match wait_sets with
    | Some w -> w
    | None -> fun ~buf ~dest -> State_space.waits space ~buf ~dest
  in
  let num_bufs = State_space.num_buffers space in
  let per_dest =
    List.init (State_space.num_nodes space) (fun dest ->
        let want = reference_dest_edges ~indirect ~wait_sets:rules space ~dest in
        if indirect then begin
          let got = ref [] in
          Bwg.dest_edges ?wait_sets space ~dest ~emit:(fun q1 q2 w ->
              got := (q1, q2, w) :: !got);
          let got = List.rev !got in
          if got <> want then
            Alcotest.failf "%s: dest %d emits %d edges, reference %d (first: %s)"
              label dest (List.length got) (List.length want)
              (match got with e :: _ -> pp_emission e | [] -> "none")
        end;
        want)
  in
  let emissions = List.concat per_dest in
  List.iter
    (fun cap ->
      let succ, wits, want_capped = reference_record ~cap num_bufs emissions in
      let cold =
        match wait_sets with
        | None ->
          List.map
            (fun (domains, dense_closures) ->
              ( Printf.sprintf "build, %d domains%s" domains
                  (if dense_closures then ", dense" else ""),
                with_cap 4 (fun () ->
                    with_capped (fun () ->
                        Bwg.build ~witness_cap:cap ~indirect ~domains ~dense_closures
                          space))
              ))
            [ (1, false); (4, false); (1, true); (4, true) ]
        | Some waits ->
          [
            ( "snapshot",
              with_capped (fun () ->
                  Bwg.Session.snapshot (Bwg.Session.create ~witness_cap:cap ~waits space))
            );
          ]
      in
      let replayed =
        with_capped (fun () ->
            Bwg.replay ~witness_cap:cap space (fun emit ->
                List.iter (fun (q1, q2, w) -> emit q1 q2 w) emissions))
      in
      (* the session's live BWG' may order a row differently *)
      let live =
        if indirect then
          [
            ( "session",
              Bwg.Session.bwg (Bwg.Session.create ~witness_cap:cap ?waits:wait_sets space),
              false );
          ]
        else []
      in
      List.iter
        (fun (name, b, ordered) ->
          let g = Bwg.graph b in
          for q1 = 0 to num_bufs - 1 do
            let got = Dfr_graph.Digraph.succ g q1 in
            let got, want =
              if ordered then (got, succ.(q1))
              else (List.sort compare got, List.sort compare succ.(q1))
            in
            if got <> want then
              Alcotest.failf "%s (%s, cap %d): successors of %d differ" label name
                cap q1;
            List.iter
              (fun q2 ->
                if Bwg.witnesses b q1 q2 <> Hashtbl.find wits (q1, q2) then
                  Alcotest.failf "%s (%s, cap %d): witnesses of %d->%d differ"
                    label name cap q1 q2)
              succ.(q1)
          done)
        (List.map (fun (name, (b, _)) -> (name, b, true)) (("replay", replayed) :: cold)
        @ live);
      List.iter
        (fun (name, (_, capped)) ->
          check Alcotest.int
            (Printf.sprintf "%s (%s): capped witnesses at cap %d" label name cap)
            want_capped capped)
        (("replay", replayed) :: cold))
    [ 0; 1; 2; 32 ]

(* a custom waiting rule exercises [?wait_sets] and the session's
   [?waits]: keep the first waiting buffer of every state *)
let first_wait space ~buf ~dest =
  match State_space.waits space ~buf ~dest with [] -> [] | w :: _ -> [ w ]

let test_catalogue () =
  List.iter
    (fun (e : Registry.entry) ->
      let net = Registry.network_for e None in
      let space = State_space.build net e.Registry.algo in
      agree ~label:e.Registry.name space;
      if Net.switching net = Net.Wormhole then
        agree ~label:(e.Registry.name ^ " direct") ~indirect:false space;
      agree ~label:(e.Registry.name ^ " first-wait") ~wait_sets:(first_wait space)
        space;
      match State_space.reduced_waits space with
      | Some rw -> agree ~label:(e.Registry.name ^ " reduced") ~wait_sets:rw space
      | None -> ())
    Registry.all

(* Fuzz cases come from progressive relations, whose move graphs are
   acyclic.  Detours add, at random channel states, one extra output
   leaving the channel's head node — usually a step away from the
   destination — so move graphs get cycles and the closure's Tarjan
   fallback runs. *)
let with_detours rng (c : Case.t) =
  let route = Hashtbl.copy c.Case.route in
  Array.iteri
    (fun i (_, head, _) ->
      for dest = 0 to c.Case.num_nodes - 1 do
        match Hashtbl.find_opt route (Case.S_chan i, dest) with
        | Some outs when outs <> [] && Dfr_util.Prng.bernoulli rng 0.3 -> (
          let leaving = ref [] in
          Array.iteri
            (fun j (src, _, _) ->
              if src = head && not (List.mem j outs) then leaving := j :: !leaving)
            c.Case.channels;
          match !leaving with
          | [] -> ()
          | l -> Hashtbl.replace route (Case.S_chan i, dest) (outs @ [ Dfr_util.Prng.pick rng l ]))
        | _ -> ()
      done)
    c.Case.channels;
  { c with Case.route }

let fuzz_case seed =
  let rng = Dfr_util.Prng.create seed in
  let case = Dfr_fuzz.Gen.case rng ~max_nodes:8 in
  if case.Case.switching = Net.Wormhole && Dfr_util.Prng.bool rng then
    with_detours rng case
  else case

let fuzz_space seed =
  let net, algo = Case.to_net_algo (fuzz_case seed) in
  State_space.build net algo

let has_cyclic_move_graph space =
  List.exists
    (fun dest ->
      not
        (Dfr_graph.Traversal.is_acyclic_csr
           (State_space.dest_view space ~dest).State_space.view_moves))
    (List.init (State_space.num_nodes space) Fun.id)

(* the generator mix covers what the property needs to mean something *)
let test_fuzz_coverage () =
  let spaces = List.init 40 fuzz_space in
  let wormhole s = Net.switching (State_space.net s) = Net.Wormhole in
  check Alcotest.bool "some cyclic wormhole move graph" true
    (List.exists (fun s -> wormhole s && has_cyclic_move_graph s) spaces);
  check Alcotest.bool "some acyclic wormhole move graphs" true
    (List.exists (fun s -> wormhole s && not (has_cyclic_move_graph s)) spaces);
  check Alcotest.bool "some packet-buffered case" true
    (List.exists (fun s -> not (wormhole s)) spaces)

let prop_fuzz =
  QCheck.Test.make ~name:"closure = per-state DFS on fuzz cases" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let space = fuzz_space seed in
      agree ~label:(Printf.sprintf "seed %d" seed) space;
      true)

(* ---------------- wait-set sessions ---------------- *)

(* Single-destination edits of [c], built on demand: drop one output of
   a branching route (the destination's groups are captured again), or
   narrow a waiting set to its first entry, or relax a narrowed one back
   to its route (wait-only edits, which usually keep the groups). *)
let edits (c : Case.t) =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun dest ->
          let route = Case.route_of c s dest in
          let drops =
            if List.compare_length_with route 2 < 0 then []
            else
              List.map
                (fun out -> (dest, fun () -> Case.drop_route_output c s dest out))
                route
          in
          let narrow () =
            let waits = Hashtbl.copy c.Case.waits in
            Hashtbl.replace waits (s, dest) [ List.hd (Case.waits_of c s dest) ];
            { c with Case.waits }
          in
          match Case.waits_of c s dest with
          | _ :: _ :: _ -> (dest, narrow) :: drops
          | _ when Hashtbl.mem c.Case.waits (s, dest) ->
            (dest, fun () -> Case.relax_waits c s dest) :: drops
          | _ -> drops)
        (List.init c.Case.num_nodes Fun.id))
    (Case.states c)

(* one of [c]'s edits that changes [space]'s slice of its destination,
   applied through [State_space.with_updated_dests] *)
let edit_step rng c space =
  let candidates = Array.of_list (edits c) in
  Dfr_util.Prng.shuffle rng candidates;
  Array.to_seq candidates
  |> Seq.take 20
  |> Seq.find_map (fun (dest, edit) ->
         let c' = edit () in
         let space' =
           State_space.with_updated_dests space
             (snd (Case.to_net_algo c'))
             ~dests:[ dest ]
         in
         let v = State_space.dest_view space ~dest in
         let v' = State_space.dest_view space' ~dest in
         if
           v.State_space.view_outs = v'.State_space.view_outs
           && v.State_space.view_wts = v'.State_space.view_wts
         then None
         else Some (c', dest, space'))

(* A random walk over a session, each step one to three removals and
   restorations or, given the case the space was built from, now and then
   an edit of one destination's slice ({!edit_step}), which forgets that
   destination's removals.  Removals may empty a state's set, and
   restorations refill it.  After every step the session must match the
   cold reference of the same wait sets: the edge set, every edge's
   witness list, the unconnected states and, when it holds a rank, every
   edge running forward under it.  At the end the snapshot must equal the
   cold build row order included.  Returns how many edited destinations
   kept their groups and how many had them captured again. *)
let session_walk ?case ~label ~cap rng space =
  let case = ref case and space = ref space in
  let kept = ref 0 and edits = ref 0 in
  let removed = Hashtbl.create 64 in
  let wait_sets ~buf ~dest =
    List.filter
      (fun t -> not (Hashtbl.mem removed (buf, dest, t)))
      (State_space.waits !space ~buf ~dest)
  in
  let entries () =
    let acc = ref [] in
    State_space.iter_reachable !space (fun ~buf ~dest ->
        List.iter
          (fun t -> acc := (buf, dest, t) :: !acc)
          (State_space.waits !space ~buf ~dest));
    List.rev !acc
  in
  let session = Bwg.Session.create ~witness_cap:cap !space in
  let agree step got =
    let want = Cold.bwg ~witness_cap:cap ~wait_sets !space in
    let fail fmt = Alcotest.failf ("%s (cap %d, step %d): " ^^ fmt) label cap step in
    Option.iter (fail "%s") (Cold.diff ~want ~got);
    if Bwg.unconnected_states got <> Bwg.unconnected_states want then
      fail "unconnected states differ";
    (match Bwg.Session.rank session with
    | Some rank ->
      Dfr_graph.Digraph.iter_edges
        (fun q1 q2 ->
          if rank.(q1) >= rank.(q2) then fail "edge %d->%d against the rank" q1 q2)
        (Bwg.graph want)
    | None -> if Bwg.is_acyclic want then fail "no rank for an acyclic BWG'");
    want
  in
  let toggle () =
    match entries () with
    | [] -> ()
    | entries ->
      for _ = 1 to 1 + Dfr_util.Prng.int rng 3 do
        let ((buf, dest, t) as e) = Dfr_util.Prng.pick rng entries in
        if Hashtbl.mem removed e then begin
          Hashtbl.remove removed e;
          Bwg.Session.restore session ~buf ~dest t
        end
        else begin
          Hashtbl.replace removed e ();
          Bwg.Session.remove session ~buf ~dest t
        end
      done
  in
  for step = 1 to 12 do
    (match !case with
    | Some c when Dfr_util.Prng.int rng 3 = 0 -> (
      match edit_step rng c !space with
      | Some (c', dest, space') ->
        case := Some c';
        space := space';
        Hashtbl.filter_map_inplace
          (fun (_, d, _) () -> if d = dest then None else Some ())
          removed;
        kept := !kept + Bwg.Session.update session space' ~dests:[ dest ];
        incr edits
      | None -> toggle ())
    | _ -> toggle ());
    ignore (agree step (Bwg.Session.bwg session) : Bwg.t)
  done;
  let snapshot = Bwg.Session.snapshot session in
  let want = agree 13 snapshot in
  for q = 0 to State_space.num_buffers !space - 1 do
    if Dfr_graph.Digraph.succ (Bwg.graph want) q
       <> Dfr_graph.Digraph.succ (Bwg.graph snapshot) q
    then Alcotest.failf "%s (cap %d): snapshot row %d out of cold order" label cap q
  done;
  (!kept, !edits - !kept)

let prop_session_fuzz =
  QCheck.Test.make ~name:"session = cold BWG' along remove/restore walks" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = fuzz_case seed in
      let net, algo = Case.to_net_algo case in
      let space = State_space.build net algo in
      let rng = Dfr_util.Prng.create (seed + 17) in
      List.iter
        (fun cap ->
          let label = Printf.sprintf "seed %d" seed in
          ignore (session_walk ~case ~label ~cap rng space))
        [ 2; 32 ];
      true)

(* the walks' edits reach both slice replacements *)
let test_walk_edit_coverage () =
  let kept, recaptured =
    List.fold_left
      (fun (k, r) seed ->
        let case = fuzz_case seed in
        let net, algo = Case.to_net_algo case in
        let k', r' =
          session_walk ~case ~label:(Printf.sprintf "seed %d" seed) ~cap:2
            (Dfr_util.Prng.create seed) (State_space.build net algo)
        in
        (k + k', r + r'))
      (0, 0) (List.init 10 Fun.id)
  in
  check Alcotest.bool "some edit keeps a destination's groups" true (kept > 0);
  check Alcotest.bool "some edit captures a destination's groups again" true
    (recaptured > 0)

(* the catalogue's two-buffer designs reprinted without their hint *)
let reprint name =
  let e = Option.get (Registry.find name) in
  let net = Registry.network_for e None in
  let text = Result.get_ok (Dfr_spec.Printer.to_string net e.Registry.algo) in
  match Dfr_spec.Spec.compile_string text with
  | Ok spec -> State_space.build spec.Dfr_spec.Spec.net spec.Dfr_spec.Spec.algo
  | Error err -> Alcotest.failf "%s reprint: %s" name (Dfr_spec.Spec.error_to_string err)

let test_session_reprints () =
  List.iter
    (fun name ->
      let space = reprint name in
      List.iter
        (fun seed ->
          let rng = Dfr_util.Prng.create seed in
          List.iter
            (fun cap -> ignore (session_walk ~label:name ~cap rng space))
            [ 2; 32 ])
        [ 1; 2; 3 ])
    [ "two-buffer"; "two-buffer-vct" ]

(* Removing one of an edge's first [cap] witnesses promotes the next: on
   the two-buffer reprint at cap 2, take an edge with three or more
   witnesses, remove its first witness's entry, and the cell must read
   the old second and third, as a cold build does. *)
let test_session_promotes () =
  let space = reprint "two-buffer" in
  let session = Bwg.Session.create ~witness_cap:2 space in
  let full = Bwg.build ~witness_cap:32 space in
  let q1, q2, ws =
    Dfr_graph.Digraph.fold_edges
      (fun q1 q2 acc ->
        match (acc, Bwg.witnesses full q1 q2) with
        | None, (_ :: _ :: _ :: _ as ws) -> Some (q1, q2, ws)
        | _ -> acc)
      (Bwg.graph full) None
    |> Option.get
  in
  let w1 = List.hd ws in
  check Alcotest.int "cap 2 before" 2 (List.length (Bwg.witnesses (Bwg.Session.bwg session) q1 q2));
  Bwg.Session.remove session ~buf:w1.Bwg.head ~dest:w1.Bwg.dest q2;
  check Alcotest.bool "second and third witnesses promoted" true
    (Bwg.witnesses (Bwg.Session.bwg session) q1 q2 = [ List.nth ws 1; List.nth ws 2 ]);
  Bwg.Session.restore session ~buf:w1.Bwg.head ~dest:w1.Bwg.dest q2;
  check Alcotest.bool "restored first witness leads again" true
    (Bwg.witnesses (Bwg.Session.bwg session) q1 q2 = [ w1; List.nth ws 1 ])

(* A snapshot keeps the wait sets it was taken under.  Remove a few
   entries, take the snapshot, then restore them and, in each destination
   touched, remove the entry behind one of the snapshot's witnesses (rows
   already written in place), and read the session again.  The snapshot
   must still read as the cold BWG' of the wait sets at snapshot time,
   rows in order, witness lists and unconnected states included. *)
let test_snapshot_isolated () =
  List.iter
    (fun (e : Registry.entry) ->
      let space = State_space.build (Registry.network_for e None) e.Registry.algo in
      let entries = ref [] in
      State_space.iter_reachable space (fun ~buf ~dest ->
          List.iter
            (fun t -> entries := (buf, dest, t) :: !entries)
            (State_space.waits space ~buf ~dest));
      let entries = List.rev !entries in
      if entries <> [] then
        List.iter
          (fun cap ->
            let label = Printf.sprintf "%s (cap %d)" e.Registry.name cap in
            let rng = Dfr_util.Prng.create 11 in
            let session = Bwg.Session.create ~witness_cap:cap space in
            let removed = Hashtbl.create 8 in
            for _ = 1 to 3 do
              let ((buf, dest, t) as entry) = Dfr_util.Prng.pick rng entries in
              if not (Hashtbl.mem removed entry) then begin
                Hashtbl.replace removed entry ();
                Bwg.Session.remove session ~buf ~dest t
              end
            done;
            let wait_sets ~buf ~dest =
              List.filter
                (fun t -> not (Hashtbl.mem removed (buf, dest, t)))
                (State_space.waits space ~buf ~dest)
            in
            let snapshot = Bwg.Session.snapshot session in
            let want = Cold.bwg ~witness_cap:cap ~wait_sets space in
            let want_unconnected = Bwg.unconnected_states want in
            (* a witness of [want] in destination [d], with its edge's target *)
            let witness_in d =
              Dfr_graph.Digraph.fold_edges
                (fun q1 q2 acc ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                    List.find_map
                      (fun (w : Bwg.witness) ->
                        if w.Bwg.dest = d then Some (w, q2) else None)
                      (Bwg.witnesses want q1 q2))
                (Bwg.graph want) None
            in
            let touched = Hashtbl.fold (fun (_, d, _) () acc -> d :: acc) removed [] in
            Hashtbl.iter
              (fun (buf, dest, t) () -> Bwg.Session.restore session ~buf ~dest t)
              removed;
            List.iter
              (fun d ->
                Option.iter
                  (fun ((w : Bwg.witness), q2) ->
                    Bwg.Session.remove session ~buf:w.Bwg.head ~dest:d q2)
                  (witness_in d))
              (List.sort_uniq compare touched);
            check Alcotest.bool (label ^ ": the session moved on") true
              (Cold.diff ~want ~got:(Bwg.Session.bwg session) <> None);
            Option.iter
              (Alcotest.failf "%s: snapshot %s" label)
              (Cold.diff ~want ~got:snapshot);
            for q = 0 to State_space.num_buffers space - 1 do
              if Dfr_graph.Digraph.succ (Bwg.graph want) q
                 <> Dfr_graph.Digraph.succ (Bwg.graph snapshot) q
              then Alcotest.failf "%s: snapshot row %d out of cold order" label q
            done;
            if Bwg.unconnected_states snapshot <> want_unconnected then
              Alcotest.failf "%s: snapshot's unconnected states moved" label)
          [ 1; 32 ])
    Registry.all

let suite =
  [
    Alcotest.test_case "closure = per-state DFS (catalogue)" `Quick test_catalogue;
    Alcotest.test_case "fuzz mix has cyclic and SAF cases" `Quick test_fuzz_coverage;
    QCheck_alcotest.to_alcotest prop_fuzz;
    QCheck_alcotest.to_alcotest prop_session_fuzz;
    Alcotest.test_case "session = cold BWG' on two-buffer reprints" `Quick
      test_session_reprints;
    Alcotest.test_case "session promotes the next witness past the cap" `Quick
      test_session_promotes;
    Alcotest.test_case "session walks edit slices both ways" `Quick
      test_walk_edit_coverage;
    Alcotest.test_case "snapshot keeps the wait sets it was taken under" `Quick
      test_snapshot_isolated;
  ]
