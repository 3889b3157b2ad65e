(* Differential test of the BWG construction against the definition.

   The reference is the construction read straight off §3 of the paper:
   for every reachable state (q1, dest), one DFS over the destination's
   full move graph finds every buffer the header can block in, and each
   such head contributes its waiting set, in rule order.  Bwg.dest_edges
   computes the same relation through destination-local SCC closures,
   and Bwg.build buckets the groups of those closures by occupied buffer
   and derives witness lists from them; its session (Bwg.Session) keeps
   them under removals.  Fed through a reference recorder (a witness
   cell per edge, found through a hash index), the reference emissions
   fix the emission sequence of every destination (the groups a session
   keeps), the edge set and its first-emission order (a session's live
   BWG' on the set only), every edge's witness list and how many
   witnesses the cap dropped, at every witness cap, domain count and
   closure layout.  A live BWG' whose rows have drifted from cold order
   must still decide as the cold build does. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Obs = Dfr_obs.Obs
module Case = Dfr_fuzz.Case

let check = Alcotest.check

type emission = int * int * Bwg.witness

(* one DFS per (q1, dest) over the destination's moves, read off
   [Slice_lists.outputs] in buffer ids, so the reference shares nothing
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
              List.iter dfs (Slice_lists.outputs space ~buf:b ~dest)
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

(* The reference recorder's witness cell: the insertion count rides
   along so the cap check is O(1), and [cut] records an emission past
   the cap. *)
type cell = { mutable count : int; mutable ws : Bwg.witness list; mutable cut : bool }

(* The reference recorder: the witness cell, found through the (q1, q2)
   index, doubles as the duplicate-edge check, so an edge enters its
   adjacency row on its first emission; a cell keeps the first [cap]
   witnesses (at least one) in emission order, and every later witness
   is a cap drop that marks the list cut ([false]: not all of them).
   Returns the graph, every edge's witness list and the drops. *)
let record ~cap num_bufs (emissions : emission list) =
  let graph = Dfr_graph.Digraph.create num_bufs in
  let cells = Hashtbl.create 1024 and capped = ref 0 in
  List.iter
    (fun (q1, q2, w) ->
      let key = (q1 * num_bufs) + q2 in
      match Hashtbl.find_opt cells key with
      | Some cell ->
        if cell.count < cap then begin
          cell.ws <- w :: cell.ws;
          cell.count <- cell.count + 1
        end
        else begin
          cell.cut <- true;
          incr capped
        end
      | None ->
        Hashtbl.add cells key { count = 1; ws = [ w ]; cut = false };
        Dfr_graph.Digraph.unsafe_add_edge graph q1 q2)
    emissions;
  let witnesses q1 q2 =
    match Hashtbl.find_opt cells ((q1 * num_bufs) + q2) with
    | Some cell -> (List.rev cell.ws, not cell.cut)
    | None -> ([], true)
  in
  (graph, witnesses, !capped)

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
   rule) against [record] of the reference emissions, at witness caps 1,
   2 and 32, and 0, where the recorder still keeps each edge's first
   witness.  Under the full rule [Bwg.build], at 1 and 4 domains with
   hybrid and dense closure rows, must give the recorder's rows in
   order, every witness list and the capped count; under any rule a
   session's live BWG', narrowed to the rule with [Bwg.Session.remove],
   rows as sets and every witness list.  [Bwg.dest_edges] reads the
   space of the algorithm narrowed to the rule ([Cold.narrowed]).
   [~indirect:false] checks the build's ablation against the direct
   reference, which nothing else builds. *)
let agree ~label ?wait_sets ?(indirect = true) space =
  let rules =
    match wait_sets with
    | Some w -> w
    | None -> fun ~buf ~dest -> Slice_lists.waits space ~buf ~dest
  in
  let narrowed =
    match wait_sets with
    | Some wait_sets -> Cold.narrowed ~wait_sets space
    | None -> space
  in
  let num_bufs = State_space.num_buffers space in
  let per_dest =
    List.init (State_space.num_nodes space) (fun dest ->
        let want = reference_dest_edges ~indirect ~wait_sets:rules space ~dest in
        if indirect then begin
          let got = ref [] in
          Bwg.dest_edges narrowed ~dest ~emit:(fun q1 q2 w ->
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
      let reference, wits, want_capped = record ~cap num_bufs emissions in
      let cold =
        if Option.is_some wait_sets then []
        else
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
      in
      (* the session's live BWG' may order a row differently *)
      let live =
        if indirect then begin
          let session = Bwg.session (Bwg.build ~witness_cap:cap space) in
          Cold.narrow session ~wait_sets:rules;
          [ ("session", Bwg.Session.bwg session, false) ]
        end
        else []
      in
      List.iter
        (fun (name, b, ordered) ->
          let g = Bwg.graph b in
          for q1 = 0 to num_bufs - 1 do
            let got = Dfr_graph.Digraph.succ g q1 in
            let want = Dfr_graph.Digraph.succ reference q1 in
            let got, want =
              if ordered then (got, want) else (List.sort compare got, List.sort compare want)
            in
            if got <> want then
              Alcotest.failf "%s (%s, cap %d): successors of %d differ" label name
                cap q1;
            List.iter
              (fun q2 ->
                if Bwg.witnesses b q1 q2 <> wits q1 q2 then
                  Alcotest.failf "%s (%s, cap %d): witnesses of %d->%d differ"
                    label name cap q1 q2)
              want
          done)
        (List.map (fun (name, (b, _)) -> (name, b, true)) cold @ live);
      List.iter
        (fun (name, (_, capped)) ->
          check Alcotest.int
            (Printf.sprintf "%s (%s): capped witnesses at cap %d" label name cap)
            want_capped capped)
        cold)
    [ 0; 1; 2; 32 ]

(* a custom waiting rule exercises narrowed spaces and sessions: keep
   the first waiting buffer of every state *)
let first_wait space ~buf ~dest =
  match Slice_lists.waits space ~buf ~dest with [] -> [] | w :: _ -> [ w ]

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
      match Slice_lists.hint space with
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
   edge running forward under it.  Returns how many edited destinations
   kept their groups and how many had them captured again. *)
let session_walk ?case ~label ~cap rng space =
  let case = ref case and space = ref space in
  let kept = ref 0 and edits = ref 0 in
  let removed = Hashtbl.create 64 in
  let wait_sets ~buf ~dest =
    List.filter
      (fun t -> not (Hashtbl.mem removed (buf, dest, t)))
      (Slice_lists.waits !space ~buf ~dest)
  in
  let entries () =
    let acc = ref [] in
    State_space.iter_reachable !space (fun ~buf ~dest ->
        List.iter
          (fun t -> acc := (buf, dest, t) :: !acc)
          (Slice_lists.waits !space ~buf ~dest));
    List.rev !acc
  in
  let session = Bwg.session (Bwg.build ~witness_cap:cap !space) in
  let agree step got =
    let want = Cold.bwg ~witness_cap:cap ~wait_sets !space in
    let fail fmt = Alcotest.failf ("%s (cap %d, step %d): " ^^ fmt) label cap step in
    Option.iter (fail "%s") (Cold.diff ~want ~got);
    if Bwg.unconnected_states got <> Bwg.unconnected_states want then
      fail "unconnected states differ";
    match Bwg.Session.rank session with
    | Some rank ->
      Dfr_graph.Digraph.iter_edges
        (fun q1 q2 ->
          if rank.(q1) >= rank.(q2) then fail "edge %d->%d against the rank" q1 q2)
        (Bwg.graph want)
    | None -> if Bwg.is_acyclic want then fail "no rank for an acyclic BWG'"
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
    agree step (Bwg.Session.bwg session)
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

(* A session's emitters of an edge are the pairs the deleted
   continuation DFS finds ([Emitters_ref]) over the same live sets, in
   witness order.  Random remove/restore walks on one session, over
   wormhole (some with detours) and SAF/VCT cases; after every step each
   edge of the full BWG, a superset of the live BWG''s, is compared, on
   alternate steps before the session's next read and after it. *)
let prop_emitters_ref =
  QCheck.Test.make ~name:"session emitters = continuation DFS along walks" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = fuzz_case seed in
      let net, algo = Case.to_net_algo case in
      let space = State_space.build net algo in
      let full = Bwg.graph (Bwg.build space) in
      let session = Bwg.session (Bwg.build space) in
      let rng = Dfr_util.Prng.create (seed + 29) in
      let removed = Hashtbl.create 64 in
      let current ~buf ~dest =
        List.filter
          (fun t -> not (Hashtbl.mem removed (buf, dest, t)))
          (Slice_lists.waits space ~buf ~dest)
      in
      let entries = ref [] in
      State_space.iter_reachable space (fun ~buf ~dest ->
          List.iter
            (fun t -> entries := (buf, dest, t) :: !entries)
            (Slice_lists.waits space ~buf ~dest));
      let agree step =
        Dfr_graph.Digraph.iter_edges
          (fun q w ->
            let got =
              List.map
                (fun { Bwg.head; dest } -> (head, dest))
                (Bwg.Session.emitters session q w)
            in
            if got <> Emitters_ref.in_witness_order space current q w then
              QCheck.Test.fail_reportf "seed %d, step %d: emitters of %d->%d differ" seed
                step q w)
          full
      in
      agree 0;
      for step = 1 to 12 do
        if !entries <> [] then
          for _ = 1 to 1 + Dfr_util.Prng.int rng 3 do
            let ((buf, dest, t) as e) = Dfr_util.Prng.pick rng !entries in
            if Hashtbl.mem removed e then begin
              Hashtbl.remove removed e;
              Bwg.Session.restore session ~buf ~dest t
            end
            else begin
              Hashtbl.replace removed e ();
              Bwg.Session.remove session ~buf ~dest t
            end
          done;
        if step mod 2 = 0 then ignore (Bwg.Session.bwg session : Bwg.t);
        agree step
      done;
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
  let session = Bwg.session (Bwg.build ~witness_cap:2 space) in
  let full = Bwg.build ~witness_cap:32 space in
  let q1, q2, ws =
    Dfr_graph.Digraph.fold_edges
      (fun q1 q2 acc ->
        match (acc, Bwg.witnesses full q1 q2) with
        | None, ((_ :: _ :: _ :: _ as ws), _) -> Some (q1, q2, ws)
        | _ -> acc)
      (Bwg.graph full) None
    |> Option.get
  in
  let w1 = List.hd ws in
  let before, all = Bwg.witnesses (Bwg.Session.bwg session) q1 q2 in
  check Alcotest.int "cap 2 before" 2 (List.length before);
  check Alcotest.bool "cap 2 cut a third" false all;
  Bwg.Session.remove session ~buf:w1.Bwg.head ~dest:w1.Bwg.dest q2;
  check Alcotest.bool "second and third witnesses promoted" true
    (fst (Bwg.witnesses (Bwg.Session.bwg session) q1 q2) = [ List.nth ws 1; List.nth ws 2 ]);
  Bwg.Session.restore session ~buf:w1.Bwg.head ~dest:w1.Bwg.dest q2;
  check Alcotest.bool "restored first witness leads again" true
    (fst (Bwg.witnesses (Bwg.Session.bwg session) q1 q2) = [ w1; List.nth ws 1 ])

(* A session's first read is its build: with every entry live, its
   rows are those of a [Bwg.build], in order.  Its first removal makes
   the count table, from the live sets of that read, and must leave the
   rows as they were; once the removals are read, and again once a
   different set of entries is removed, the counts the table entered
   must give the cold reference of the same wait sets ([Cold.bwg]),
   with every witness list. *)
let first_read_is_cold ~label rng space =
  let num_bufs = State_space.num_buffers space in
  let same_rows what want got =
    for q = 0 to num_bufs - 1 do
      if Dfr_graph.Digraph.succ (Bwg.graph got) q <> Dfr_graph.Digraph.succ (Bwg.graph want) q
      then Alcotest.failf "%s: %s: row %d out of cold order" label what q
    done
  in
  let entries = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      List.iter
        (fun t -> entries := (buf, dest, t) :: !entries)
        (Slice_lists.waits space ~buf ~dest));
  let bwg = Bwg.build space in
  let session = Bwg.session bwg in
  let removed = Hashtbl.create 64 in
  let wait_sets ~buf ~dest =
    List.filter
      (fun t -> not (Hashtbl.mem removed (buf, dest, t)))
      (Slice_lists.waits space ~buf ~dest)
  in
  let toggle_some () =
    List.iter
      (fun ((buf, dest, t) as e) ->
        if Hashtbl.mem removed e then begin
          Hashtbl.remove removed e;
          Bwg.Session.restore session ~buf ~dest t
        end
        else if Dfr_util.Prng.int rng 4 = 0 then begin
          Hashtbl.replace removed e ();
          Bwg.Session.remove session ~buf ~dest t
        end)
      !entries
  in
  let agree what =
    let want = Cold.bwg ~wait_sets space and got = Bwg.Session.bwg session in
    Option.iter (Alcotest.failf "%s: %s: %s" label what) (Cold.diff ~want ~got)
  in
  toggle_some ();
  same_rows "full rule, count table made" (Bwg.build space) bwg;
  agree "first read after removals";
  toggle_some ();
  agree "a later read"

let test_first_read_cold () =
  List.iter
    (fun (e : Registry.entry) ->
      first_read_is_cold ~label:e.Registry.name (Dfr_util.Prng.create 5)
        (State_space.build (Registry.network_for e None) e.Registry.algo))
    Registry.all;
  for seed = 0 to 39 do
    first_read_is_cold ~label:(Printf.sprintf "seed %d" seed)
      (Dfr_util.Prng.create (seed + 7))
      (fuzz_space seed)
  done

(* ---------------- decisions on live BWGs ---------------- *)

(* A session walked back to the full rule: a few rounds that remove
   random entries, read, restore them and read again, then one that
   does the same to every entry waiting on [target], the first
   successor of a cold row with two or more.  Every edge into [target]
   leaves the adjacency and re-enters at the end of its row, so that
   row, at least, now lists its successors in another order than
   [Bwg.build]'s.  [Checker.decide] on the live BWG must still render
   the report it renders on a fresh build, at 1 and 4 domains (the
   classification fan-out reads the live view's witnesses from pool
   workers).  [false] when no cold row has two successors, so no row can
   drift. *)
let live_decides_as_cold ~label rng space =
  let cold = Bwg.build space in
  let g = Bwg.graph cold in
  let targets =
    List.filter_map
      (fun q ->
        match Dfr_graph.Digraph.succ g q with w :: _ :: _ -> Some w | _ -> None)
      (List.init (State_space.num_buffers space) Fun.id)
  in
  targets <> []
  &&
  let entries = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      List.iter
        (fun t -> entries := (buf, dest, t) :: !entries)
        (Slice_lists.waits space ~buf ~dest));
  let entries = Array.of_list (List.rev !entries) in
  let stuck = State_space.stuck_states space in
  let unconnected = if stuck = [] then Bwg.unconnected_states cold else [] in
  let render domains bwg =
    Dfr_util.Json.to_string
      (Report_json.of_outcome (State_space.net space) (State_space.algo space)
         (with_cap 4 (fun () -> Checker.decide ~domains ~stuck ~unconnected space bwg)))
  in
  (* a Theorem-3 decision narrows its BWG and hands it back: not [cold] *)
  let want = render 1 (Bwg.build space) in
  List.iter
    (fun domains ->
      let session = Bwg.session (Bwg.build ~domains space) in
      let round picked =
        List.iter (fun (buf, dest, t) -> Bwg.Session.remove session ~buf ~dest t) picked;
        ignore (Bwg.Session.bwg session : Bwg.t);
        List.iter (fun (buf, dest, t) -> Bwg.Session.restore session ~buf ~dest t) picked;
        ignore (Bwg.Session.bwg session : Bwg.t)
      in
      for _ = 1 to Dfr_util.Prng.int rng 3 do
        let n = 1 + Dfr_util.Prng.int rng 4 in
        round
          (List.sort_uniq compare
             (List.init n (fun _ -> entries.(Dfr_util.Prng.int rng (Array.length entries)))))
      done;
      let target = Dfr_util.Prng.pick rng targets in
      round (List.filter (fun (_, _, t) -> t = target) (Array.to_list entries));
      let live = Bwg.Session.bwg session in
      let drifted =
        List.exists
          (fun q -> Dfr_graph.Digraph.succ (Bwg.graph live) q <> Dfr_graph.Digraph.succ g q)
          (List.init (State_space.num_buffers space) Fun.id)
      in
      if not drifted then Alcotest.failf "%s (%d domains): no row drifted" label domains;
      check Alcotest.string
        (Printf.sprintf "%s (%d domains): live report = cold" label domains)
        want (render domains live))
    [ 1; 4 ];
  true

let test_live_decides_catalogue () =
  let cyclic = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      let space = State_space.build (Registry.network_for e None) e.Registry.algo in
      if not (Bwg.is_acyclic (Bwg.build space)) then begin
        incr cyclic;
        let rng = Dfr_util.Prng.create 29 in
        if not (live_decides_as_cold ~label:e.Registry.name rng space) then
          Alcotest.failf "%s: no row can drift" e.Registry.name
      end)
    Registry.all;
  check Alcotest.bool "some cyclic catalogue entries" true (!cyclic > 0)

(* Gen cases, detours included: the decisions cover cyclic BWGs *)
let test_live_decides_fuzz () =
  let cyclic = ref 0 in
  for seed = 0 to 39 do
    let space = fuzz_space seed in
    let rng = Dfr_util.Prng.create (seed + 101) in
    if
      live_decides_as_cold ~label:(Printf.sprintf "seed %d" seed) rng space
      && not (Bwg.is_acyclic (Bwg.build space))
    then incr cyclic
  done;
  check Alcotest.bool "some cyclic fuzz cases drifted" true (!cyclic > 0)

(* ---------------- the closure scratch ---------------- *)

let efa_cube n =
  let e = Option.get (Registry.find "efa") in
  let topo = Result.get_ok (Dfr_topology.Topology.of_string (Printf.sprintf "hypercube:%d" n)) in
  State_space.build (Registry.network_for e (Some topo)) e.Registry.algo

(* efa on hypercube:5: a destination reaches ~166 buffers, so a promoted
   closure row is three words wide or more, where the catalogue defaults'
   and the Gen cases' are one or two *)
let test_multiword_rows () =
  let space = efa_cube 5 in
  let widest =
    List.fold_left
      (fun acc dest ->
        max acc ((Array.length (State_space.dest_view space ~dest).State_space.view_bufs + 61) / 62))
      0
      (List.init (State_space.num_nodes space) Fun.id)
  in
  check Alcotest.bool "rows three words wide" true (widest >= 3);
  Obs.enable ();
  ignore (Bwg.build space : Bwg.t);
  let dense = List.assoc_opt "bwg.closure.dense-rows" (Obs.counters ()) in
  Obs.disable ();
  check Alcotest.bool "some rows promoted" true (Option.value dense ~default:0 > 0);
  agree ~label:"efa hypercube:5" space

let dest_emissions ~dense_closures space dest =
  let acc = ref [] in
  Bwg.dest_edges ~dense_closures space ~dest ~emit:(fun q1 q2 w -> acc := (q1, q2, w) :: !acc);
  List.rev !acc

(* One domain's closure scratch serves destinations of any size in turn:
   captures of large, small and large destinations, hybrid and
   forced-dense rows interleaved and a cyclic move graph (the Tarjan
   numbering) among them, equal the same captures in a domain that never
   ran one. *)
let test_scratch_between_sizes () =
  let large = efa_cube 5 and small = efa_cube 2 in
  let cyclic, cyclic_dest =
    List.find_map
      (fun seed ->
        let space = fuzz_space seed in
        if Net.switching (State_space.net space) <> Net.Wormhole then None
        else
          List.find_opt
            (fun dest ->
              not
                (Dfr_graph.Traversal.is_acyclic_csr
                   (State_space.dest_view space ~dest).State_space.view_moves))
            (List.init (State_space.num_nodes space) Fun.id)
          |> Option.map (fun dest -> (space, dest)))
      (List.init 40 Fun.id)
    |> Option.get
  in
  let steps =
    [
      (large, 0, true); (small, 1, false); (large, 31, false); (cyclic, cyclic_dest, true);
      (large, 7, true); (small, 2, true); (cyclic, cyclic_dest, false); (large, 12, false);
    ]
  in
  let here =
    List.map (fun (space, dest, dense_closures) -> dest_emissions ~dense_closures space dest) steps
  in
  List.iteri
    (fun i ((space, dest, dense_closures), got) ->
      let fresh =
        Domain.join (Domain.spawn (fun () -> dest_emissions ~dense_closures space dest))
      in
      if got <> fresh then
        Alcotest.failf "step %d (dest %d%s): %d emissions, %d from fresh scratch" i dest
          (if dense_closures then ", dense" else "")
          (List.length got) (List.length fresh))
    (List.combine steps here)

let suite =
  [
    Alcotest.test_case "closure = per-state DFS (catalogue)" `Quick test_catalogue;
    Alcotest.test_case "fuzz mix has cyclic and SAF cases" `Quick test_fuzz_coverage;
    QCheck_alcotest.to_alcotest prop_fuzz;
    QCheck_alcotest.to_alcotest prop_session_fuzz;
    QCheck_alcotest.to_alcotest prop_emitters_ref;
    Alcotest.test_case "session = cold BWG' on two-buffer reprints" `Quick
      test_session_reprints;
    Alcotest.test_case "session promotes the next witness past the cap" `Quick
      test_session_promotes;
    Alcotest.test_case "session walks edit slices both ways" `Quick
      test_walk_edit_coverage;
    Alcotest.test_case "live BWG' decides as cold (cyclic catalogue)" `Quick
      test_live_decides_catalogue;
    Alcotest.test_case "live BWG' decides as cold (fuzz cases)" `Quick
      test_live_decides_fuzz;
    Alcotest.test_case "session first read = cold rows in order" `Quick
      test_first_read_cold;
    Alcotest.test_case "closure = per-state DFS on multi-word rows" `Quick
      test_multiword_rows;
    Alcotest.test_case "closure scratch carries nothing between sizes" `Quick
      test_scratch_between_sizes;
  ]
