(* Differential test of the BWG construction against the definition.

   The reference is the construction read straight off §3 of the paper:
   for every reachable state (q1, dest), one DFS over the destination's
   full move graph finds every buffer the header can block in, and each
   such head contributes its waiting set, in rule order.  Bwg.build and
   Bwg.dest_edges compute the same relation through destination-local
   SCC closures, and a wait-set session (Bwg.Session) from the groups of
   those closures; they must agree with the reference on the emission
   sequence of every destination (which is what Incr caches and replays),
   on the edge set and its first-emission order (a session's live BWG' on
   the set only), on every edge's witness list, and on how many witnesses
   the cap dropped. *)

open Dfr_network
open Dfr_routing
open Dfr_core
module Obs = Dfr_obs.Obs
module Case = Dfr_fuzz.Case
module Csr = Dfr_graph.Csr

let check = Alcotest.check

type emission = int * int * Bwg.witness

(* one DFS per (q1, dest) over the destination's full move graph *)
let reference_dest_edges ~wait_sets space ~dest : emission list =
  let wormhole = Net.switching (State_space.net space) = Net.Wormhole in
  let num_bufs = State_space.num_buffers space in
  let g = State_space.move_graph_view space ~dest in
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
              Csr.iter_succ dfs g b
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
    (State_space.reachable_with space ~dest);
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

(* [f ()] and the witnesses its recorder dropped at the cap *)
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

let agree ~label ?wait_sets space =
  let rules =
    match wait_sets with
    | Some w -> w
    | None -> fun ~buf ~dest -> State_space.waits space ~buf ~dest
  in
  let num_bufs = State_space.num_buffers space in
  let per_dest =
    List.init (State_space.num_nodes space) (fun dest ->
        let want = reference_dest_edges ~wait_sets:rules space ~dest in
        let got = ref [] in
        Bwg.dest_edges ?wait_sets space ~dest ~emit:(fun q1 q2 w ->
            got := (q1, q2, w) :: !got);
        let got = List.rev !got in
        if got <> want then
          Alcotest.failf "%s: dest %d emits %d edges, reference %d (first: %s)"
            label dest (List.length got) (List.length want)
            (match got with e :: _ -> pp_emission e | [] -> "none");
        want)
  in
  let emissions = List.concat per_dest in
  List.iter
    (fun cap ->
      let succ, wits, want_capped = reference_record ~cap num_bufs emissions in
      (* the full rule is [Bwg.build]'s; a custom one is a session's *)
      let built, capped =
        with_capped (fun () ->
            match wait_sets with
            | None -> Bwg.build ~witness_cap:cap space
            | Some waits ->
              Bwg.Session.snapshot (Bwg.Session.create ~witness_cap:cap ~waits space))
      in
      (* Incr's slow path: the cached emission sequences replayed *)
      let replayed =
        Bwg.replay ~witness_cap:cap space (fun emit ->
            List.iter (fun (q1, q2, w) -> emit q1 q2 w) emissions)
      in
      (* the session's live BWG' may order a row differently *)
      let live =
        Bwg.Session.bwg (Bwg.Session.create ~witness_cap:cap ?waits:wait_sets space)
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
        [
          ((if wait_sets = None then "build" else "snapshot"), built, true);
          ("replay", replayed, true);
          ("session", live, false);
        ];
      check Alcotest.int
        (Printf.sprintf "%s: capped witnesses at cap %d" label cap)
        want_capped capped)
    [ 1; 32 ]

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

let fuzz_space seed =
  let rng = Dfr_util.Prng.create seed in
  let case = Dfr_fuzz.Gen.case rng ~max_nodes:8 in
  let case =
    if case.Case.switching = Net.Wormhole && Dfr_util.Prng.bool rng then
      with_detours rng case
    else case
  in
  let net, algo = Case.to_net_algo case in
  State_space.build net algo

let has_cyclic_move_graph space =
  List.exists
    (fun dest ->
      not (Dfr_graph.Traversal.is_acyclic_csr (State_space.move_graph_view space ~dest)))
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

(* A random walk of removals and restorations over a session's entries,
   each step one to three changes, checked after every step against the
   cold reference of the same wait sets: the edge set, every edge's
   witness list, and the unconnected states.  Removals may empty a
   state's set, and restorations refill it.  At the end the snapshot must
   equal the cold build row order included. *)
let session_walk ~label ~cap rng space =
  let entries = ref [] in
  State_space.iter_reachable space (fun ~buf ~dest ->
      List.iter
        (fun t -> entries := (buf, dest, t) :: !entries)
        (State_space.waits space ~buf ~dest));
  let entries = Array.of_list (List.rev !entries) in
  let removed = Hashtbl.create 64 in
  let wait_sets ~buf ~dest =
    List.filter
      (fun t -> not (Hashtbl.mem removed (buf, dest, t)))
      (State_space.waits space ~buf ~dest)
  in
  let session = Bwg.Session.create ~witness_cap:cap space in
  let agree step got =
    let want = Cold.bwg ~witness_cap:cap ~wait_sets space in
    Option.iter
      (Alcotest.failf "%s (cap %d, step %d): %s" label cap step)
      (Cold.diff ~want ~got);
    if Bwg.unconnected_states got <> Bwg.unconnected_states want then
      Alcotest.failf "%s (cap %d, step %d): unconnected states differ" label cap step;
    want
  in
  if Array.length entries > 0 then
    for step = 1 to 12 do
      for _ = 1 to 1 + Dfr_util.Prng.int rng 3 do
        let ((buf, dest, t) as e) = Dfr_util.Prng.pick rng (Array.to_list entries) in
        if Hashtbl.mem removed e then begin
          Hashtbl.remove removed e;
          Bwg.Session.restore session ~buf ~dest t
        end
        else begin
          Hashtbl.replace removed e ();
          Bwg.Session.remove session ~buf ~dest t
        end
      done;
      ignore (agree step (Bwg.Session.bwg session) : Bwg.t)
    done;
  let snapshot = Bwg.Session.snapshot session in
  let want = agree 13 snapshot in
  for q = 0 to State_space.num_buffers space - 1 do
    if Dfr_graph.Digraph.succ (Bwg.graph want) q
       <> Dfr_graph.Digraph.succ (Bwg.graph snapshot) q
    then Alcotest.failf "%s (cap %d): snapshot row %d out of cold order" label cap q
  done

let prop_session_fuzz =
  QCheck.Test.make ~name:"session = cold BWG' along remove/restore walks" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let space = fuzz_space seed in
      let rng = Dfr_util.Prng.create (seed + 17) in
      List.iter
        (fun cap -> session_walk ~label:(Printf.sprintf "seed %d" seed) ~cap rng space)
        [ 2; 32 ];
      true)

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
          List.iter (fun cap -> session_walk ~label:name ~cap rng space) [ 2; 32 ])
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
  ]
