(* Tests for dfr_graph: digraphs, traversal, SCC, cycle enumeration. *)

open Dfr_graph

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* random digraph generator for property tests *)
let arbitrary_digraph =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      list_size (int_range 0 40) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun edges -> return (n, edges))
  in
  QCheck.make gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))

(* ---------------- digraph ---------------- *)

let test_digraph_basic () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 0 1;
  (* duplicate ignored *)
  check Alcotest.int "edges" 2 (Digraph.num_edges g);
  check Alcotest.bool "mem" true (Digraph.mem_edge g 0 1);
  check Alcotest.bool "not mem" false (Digraph.mem_edge g 1 0);
  check (Alcotest.list Alcotest.int) "succ order" [ 1; 2 ] (Digraph.succ g 0);
  let visited = ref [] in
  Digraph.iter_succ (fun v -> visited := v :: !visited) g 0;
  check (Alcotest.list Alcotest.int) "iter_succ order" [ 1; 2 ] (List.rev !visited);
  Digraph.remove_edge g 0 1;
  check Alcotest.int "after remove" 1 (Digraph.num_edges g);
  check Alcotest.bool "removed" false (Digraph.mem_edge g 0 1)

let test_digraph_bounds () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "out of range" (Invalid_argument "Digraph: vertex out of range")
    (fun () -> Digraph.add_edge g 0 2)

let test_digraph_transpose () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  let t = Digraph.transpose g in
  check Alcotest.bool "1->0 in transpose" true (Digraph.mem_edge t 1 0);
  check Alcotest.bool "transpose twice = original" true
    (Digraph.equal g (Digraph.transpose t))

let test_digraph_induced () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let h = Digraph.induced g ~keep:(fun v -> v < 3) in
  check Alcotest.int "induced edges" 2 (Digraph.num_edges h);
  check Alcotest.bool "kept" true (Digraph.mem_edge h 0 1);
  check Alcotest.bool "dropped" false (Digraph.mem_edge h 2 3)

let test_digraph_copy_isolated () =
  let g = Digraph.of_edges 3 [ (0, 1) ] in
  let h = Digraph.copy g in
  Digraph.add_edge h 1 2;
  check Alcotest.bool "copy isolated" false (Digraph.mem_edge g 1 2)

let prop_edges_roundtrip =
  QCheck.Test.make ~name:"of_edges/edges roundtrip" ~count:200 arbitrary_digraph
    (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let es' = Digraph.edges g in
      List.sort_uniq compare es = List.sort compare es')

(* ---------------- traversal ---------------- *)

let diamond = Digraph.of_edges 5 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_reachable () =
  let r = Traversal.reachable diamond [ 0 ] in
  check (Alcotest.array Alcotest.bool) "reach from 0"
    [| true; true; true; true; false |]
    r;
  let r1 = Traversal.reachable diamond [ 1 ] in
  check Alcotest.bool "4 unreachable" false r1.(4);
  check Alcotest.bool "2 unreachable from 1" false r1.(2)

let test_bfs_distances () =
  let d = Traversal.bfs_distances diamond 0 in
  check Alcotest.int "d(0)" 0 d.(0);
  check Alcotest.int "d(3)" 2 d.(3);
  check Alcotest.int "d(4) unreachable" max_int d.(4)

let test_topological_sort () =
  match Traversal.topological_sort diamond with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some order ->
    check Alcotest.int "all vertices" 5 (List.length order);
    let pos = Hashtbl.create 8 in
    List.iteri (fun i v -> Hashtbl.replace pos v i) order;
    Digraph.iter_edges
      (fun u v ->
        if Hashtbl.find pos u >= Hashtbl.find pos v then
          Alcotest.fail "edge points backward")
      diamond

let test_topo_rejects_cycle () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  check Alcotest.bool "cyclic" false (Traversal.is_acyclic g);
  check Alcotest.bool "self loop cyclic" false
    (Traversal.is_acyclic (Digraph.of_edges 1 [ (0, 0) ]))

let test_find_cycle () =
  (match Traversal.find_cycle diamond with
  | None -> ()
  | Some _ -> Alcotest.fail "diamond has no cycle");
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 1); (2, 3) ] in
  (match Traversal.find_cycle g with
  | Some c ->
    check (Alcotest.list Alcotest.int) "the 1-2 cycle" [ 1; 2 ] (List.sort compare c)
  | None -> Alcotest.fail "cycle exists");
  match Traversal.find_cycle (Digraph.of_edges 2 [ (0, 0) ]) with
  | Some [ 0 ] -> ()
  | _ -> Alcotest.fail "self loop is a singleton cycle"

let test_path () =
  (match Traversal.path diamond 0 3 with
  | Some p ->
    check Alcotest.int "length 3" 3 (List.length p);
    check Alcotest.int "starts at src" 0 (List.hd p)
  | None -> Alcotest.fail "path exists");
  check Alcotest.bool "no path" true (Traversal.path diamond 3 0 = None);
  match Traversal.path diamond 2 2 with
  | Some [ 2 ] -> ()
  | _ -> Alcotest.fail "trivial path"

let prop_topo_sound =
  QCheck.Test.make ~name:"topological sort is a witness of acyclicity" ~count:200
    arbitrary_digraph (fun (n, es) ->
      let g = Digraph.of_edges n es in
      match Traversal.topological_sort g with
      | None -> Traversal.find_cycle g <> None
      | Some order ->
        let pos = Hashtbl.create 8 in
        List.iteri (fun i v -> Hashtbl.replace pos v i) order;
        List.length order = n
        && Digraph.fold_edges
             (fun u v acc -> acc && Hashtbl.find pos u < Hashtbl.find pos v)
             g true)

(* ---------------- scc ---------------- *)

let test_scc_two_components () =
  let g = Digraph.of_edges 5 [ (0, 1); (1, 0); (1, 2); (2, 3); (3, 2); (3, 4) ] in
  let r = Scc.compute g in
  check Alcotest.int "component count" 3 r.Scc.count;
  check Alcotest.bool "0,1 together" true (r.Scc.component.(0) = r.Scc.component.(1));
  check Alcotest.bool "2,3 together" true (r.Scc.component.(2) = r.Scc.component.(3));
  check Alcotest.bool "4 alone" true
    (r.Scc.component.(4) <> r.Scc.component.(3)
    && r.Scc.component.(4) <> r.Scc.component.(0))

let test_scc_condensation_acyclic () =
  let g = Digraph.of_edges 6 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ] in
  let r = Scc.compute g in
  check Alcotest.int "2 components" 2 r.Scc.count;
  check Alcotest.bool "condensation acyclic" true
    (Traversal.is_acyclic (Scc.condensation g r))

let test_scc_nontrivial () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 0); (2, 2) ] in
  let r = Scc.compute g in
  check Alcotest.int "two cycle-capable components" 2
    (List.length (Scc.nontrivial g r))

let prop_scc_condensation_dag =
  QCheck.Test.make ~name:"condensation is always a DAG" ~count:200 arbitrary_digraph
    (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let r = Scc.compute g in
      Traversal.is_acyclic (Scc.condensation g r))

let prop_scc_reverse_topological =
  QCheck.Test.make ~name:"component indices reverse-topological" ~count:200
    arbitrary_digraph (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let r = Scc.compute g in
      Digraph.fold_edges
        (fun u v acc ->
          acc
          && (r.Scc.component.(u) = r.Scc.component.(v)
             || r.Scc.component.(u) > r.Scc.component.(v)))
        g true)

let prop_scc_members_partition =
  QCheck.Test.make ~name:"members partition the vertices" ~count:200 arbitrary_digraph
    (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let r = Scc.compute g in
      let all = Array.to_list (Scc.members r) |> List.concat |> List.sort compare in
      all = List.init n Fun.id)

(* ---------------- cycles ---------------- *)

let cycle_valid g c =
  match c with
  | [] -> false
  | first :: _ ->
    let rec edges = function
      | [ last ] -> Digraph.mem_edge g last first
      | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && edges rest
      | [] -> false
    in
    edges c && List.length (List.sort_uniq compare c) = List.length c

let test_cycles_triangle () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  check Alcotest.int "one cycle" 1 (List.length (Cycles.enumerate g))

let test_cycles_self_loop () =
  let g = Digraph.of_edges 2 [ (0, 0); (0, 1) ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "self loop" [ [ 0 ] ] (Cycles.enumerate g)

let test_cycles_complete_4 () =
  (* K4 directed both ways: 6 two-cycles + 8 triangles + 6 Hamiltonian *)
  let es = ref [] in
  for u = 0 to 3 do
    for v = 0 to 3 do
      if u <> v then es := (u, v) :: !es
    done
  done;
  let g = Digraph.of_edges 4 !es in
  let cs = Cycles.enumerate g in
  check Alcotest.int "20 elementary cycles" 20 (List.length cs);
  List.iter (fun c -> check Alcotest.bool "valid" true (cycle_valid g c)) cs

let test_cycles_two_disjoint () =
  let g = Digraph.of_edges 6 [ (0, 1); (1, 0); (3, 4); (4, 5); (5, 3) ] in
  check Alcotest.int "two cycles" 2 (List.length (Cycles.enumerate g))

let test_cycles_cap () =
  let es = ref [] in
  for u = 0 to 5 do
    for v = 0 to 5 do
      if u <> v then es := (u, v) :: !es
    done
  done;
  let g = Digraph.of_edges 6 !es in
  let limits = { Dfr_graph.Cycles.max_cycles = 10; max_length = 64 } in
  let cs, exhaustive = Cycles.enumerate_checked ~limits g in
  check Alcotest.int "capped" 10 (List.length cs);
  check Alcotest.bool "reported truncated" false exhaustive;
  let cs_all, exh_all = Cycles.enumerate_checked g in
  check Alcotest.bool "full run exhaustive" true exh_all;
  check Alcotest.bool "full run has more" true (List.length cs_all > 10)

let test_cycles_length_cap () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 3); (3, 0) ] in
  (* cycles: the 4-cycle, 3<->0 two-cycle *)
  let limits = { Dfr_graph.Cycles.max_cycles = 100; max_length = 2 } in
  let cs = Cycles.enumerate ~limits g in
  check Alcotest.int "only short cycles" 1 (List.length cs);
  (* the cut at 0 -> 1 -> 2 leaves 2 blocked, so [0; 2; 3] is missed too:
     the enumeration must not claim to be exhaustive *)
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let limits = { Dfr_graph.Cycles.max_cycles = 100; max_length = 3 } in
  check Alcotest.bool "a cut is not exhaustive" false
    (snd (Cycles.enumerate_checked ~limits g));
  check Alcotest.int "uncapped: both cycles" 2 (List.length (Cycles.enumerate g))

let prop_cycles_valid_distinct =
  QCheck.Test.make ~name:"enumerated cycles valid and distinct" ~count:100
    arbitrary_digraph (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let cs = Cycles.enumerate g in
      (* cycles are rooted at their smallest vertex, so the raw lists are
         canonical: distinct lists = distinct cycles *)
      List.for_all (cycle_valid g) cs
      && List.length (List.sort_uniq compare cs) = List.length cs)

let prop_cycles_iff_cyclic =
  QCheck.Test.make ~name:"cycles found iff not acyclic" ~count:200 arbitrary_digraph
    (fun (n, es) ->
      let g = Digraph.of_edges n es in
      Cycles.enumerate g <> [] = not (Traversal.is_acyclic g))

(* the implicit-rows engine (rows generated per vertex on demand) must be
   bit-for-bit the whole-graph enumeration: same cycles, same order, same
   exhaustiveness flag — also under truncation, where the shared prefix
   is what the checker's verdicts depend on *)
let prop_rows_engine_matches_graph =
  QCheck.Test.make ~name:"implicit-rows enumeration = frozen enumeration"
    ~count:200 arbitrary_digraph (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let c = Digraph.freeze g in
      let row v = Array.of_list (Csr.succ c v) in
      let reference = Cycles.enumerate_checked g in
      let via_rows = Cycles.enumerate_checked_rows ~n ~row () in
      reference = via_rows)

let prop_rows_engine_matches_graph_truncated =
  QCheck.Test.make ~name:"implicit-rows truncation = frozen truncation"
    ~count:200 arbitrary_digraph (fun (n, es) ->
      let limits = { Cycles.max_cycles = 3; max_length = 4 } in
      let g = Digraph.of_edges n es in
      let c = Digraph.freeze g in
      let row v = Array.of_list (Csr.succ c v) in
      Cycles.enumerate_checked ~limits g
      = Cycles.enumerate_checked_rows ~limits ~n ~row ())

(* ---------------- csr ---------------- *)

let test_csr_freeze_roundtrip () =
  let g = Digraph.of_edges 4 [ (0, 2); (0, 1); (2, 3); (3, 0); (0, 1) ] in
  let c = Digraph.freeze g in
  check Alcotest.int "vertices" 4 (Csr.num_vertices c);
  check Alcotest.int "edges deduped" 4 (Csr.num_edges c);
  check (Alcotest.list Alcotest.int) "rows sorted" [ 1; 2 ] (Csr.succ c 0);
  check Alcotest.bool "mem" true (Csr.mem_edge c 3 0);
  check Alcotest.bool "not mem" false (Csr.mem_edge c 1 0);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "edge list"
    [ (0, 1); (0, 2); (2, 3); (3, 0) ]
    (Csr.edges c)

let test_csr_row_cursor () =
  let c = Csr.of_edges 3 [ (0, 2); (0, 1); (2, 0) ] in
  let lo, hi = Csr.row c 0 in
  check Alcotest.int "row width" 2 (hi - lo);
  check Alcotest.int "first" 1 (Csr.target c lo);
  check Alcotest.int "second" 2 (Csr.target c (lo + 1));
  let lo1, hi1 = Csr.row c 1 in
  check Alcotest.int "empty row" 0 (hi1 - lo1)

let test_csr_transpose_equal () =
  let c = Csr.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 1) ] in
  check Alcotest.bool "double transpose" true
    (Csr.equal c (Csr.transpose (Csr.transpose c)));
  check Alcotest.bool "transpose differs" false (Csr.equal c (Csr.transpose c))

let prop_freeze_preserves_edges =
  QCheck.Test.make ~name:"freeze preserves the edge set" ~count:200
    arbitrary_digraph (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let c = Digraph.freeze g in
      List.sort compare (Csr.edges c) = List.sort compare (Digraph.edges g))

let prop_digraph_equal_matches_edge_sets =
  QCheck.Test.make ~name:"Digraph.equal = edge-set equality" ~count:200
    (QCheck.pair arbitrary_digraph arbitrary_digraph)
    (fun ((n1, es1), (n2, es2)) ->
      let g1 = Digraph.of_edges n1 es1 and g2 = Digraph.of_edges n2 es2 in
      Digraph.equal g1 g2
      = (n1 = n2
        && List.sort compare (Digraph.edges g1)
           = List.sort compare (Digraph.edges g2)))

let prop_scc_bounded =
  QCheck.Test.make ~name:"compute_bounded restricts to vertices >= least"
    ~count:200
    (QCheck.pair arbitrary_digraph (QCheck.int_range 0 12))
    (fun ((n, es), least) ->
      let least = min least n in
      let c = Digraph.freeze (Digraph.of_edges n es) in
      let r = Scc.compute_bounded c ~least in
      let ok = ref true in
      (* excluded vertices hold -1, included ones a valid component *)
      for v = 0 to n - 1 do
        if v < least then (if r.Scc.component.(v) <> -1 then ok := false)
        else if r.Scc.component.(v) < 0 || r.Scc.component.(v) >= r.Scc.count
        then ok := false
      done;
      (* reverse topological numbering within the induced subgraph *)
      Csr.iter_edges
        (fun u v ->
          if u >= least && v >= least then
            if r.Scc.component.(u) < r.Scc.component.(v) then ok := false)
        c;
      !ok)

(* ---------------- dot ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_dot_output () =
  let g = Digraph.of_edges 2 [ (0, 1) ] in
  let s = Dot.to_string ~name:"t" ~vertex_label:(Printf.sprintf "v%d") g in
  check Alcotest.bool "mentions edge" true (contains s "n0 -> n1");
  check Alcotest.bool "mentions label" true (contains s "v1");
  check Alcotest.bool "escapes quotes" true
    (contains (Dot.to_string ~name:"a\"b" g) "a\\\"b")

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basic;
    Alcotest.test_case "digraph bounds" `Quick test_digraph_bounds;
    Alcotest.test_case "digraph transpose" `Quick test_digraph_transpose;
    Alcotest.test_case "digraph induced" `Quick test_digraph_induced;
    Alcotest.test_case "digraph copy isolated" `Quick test_digraph_copy_isolated;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "topological sort" `Quick test_topological_sort;
    Alcotest.test_case "topo rejects cycles" `Quick test_topo_rejects_cycle;
    Alcotest.test_case "find cycle" `Quick test_find_cycle;
    Alcotest.test_case "bfs path" `Quick test_path;
    Alcotest.test_case "scc two components" `Quick test_scc_two_components;
    Alcotest.test_case "scc condensation" `Quick test_scc_condensation_acyclic;
    Alcotest.test_case "scc nontrivial" `Quick test_scc_nontrivial;
    Alcotest.test_case "cycles triangle" `Quick test_cycles_triangle;
    Alcotest.test_case "cycles self loop" `Quick test_cycles_self_loop;
    Alcotest.test_case "cycles K4 = 20" `Quick test_cycles_complete_4;
    Alcotest.test_case "cycles disjoint" `Quick test_cycles_two_disjoint;
    Alcotest.test_case "cycles cap" `Quick test_cycles_cap;
    Alcotest.test_case "cycles length cap" `Quick test_cycles_length_cap;
    Alcotest.test_case "csr freeze roundtrip" `Quick test_csr_freeze_roundtrip;
    Alcotest.test_case "csr row cursor" `Quick test_csr_row_cursor;
    Alcotest.test_case "csr transpose/equal" `Quick test_csr_transpose_equal;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    qtest prop_edges_roundtrip;
    qtest prop_freeze_preserves_edges;
    qtest prop_digraph_equal_matches_edge_sets;
    qtest prop_scc_bounded;
    qtest prop_topo_sound;
    qtest prop_scc_condensation_dag;
    qtest prop_scc_reverse_topological;
    qtest prop_scc_members_partition;
    qtest prop_cycles_valid_distinct;
    qtest prop_cycles_iff_cyclic;
    qtest prop_rows_engine_matches_graph;
    qtest prop_rows_engine_matches_graph_truncated;
  ]

let test_dot_to_file () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let file = Filename.temp_file "dfr_dot" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Dot.to_file ~name:"t" file g;
      let ic = open_in file in
      let n = in_channel_length ic in
      close_in ic;
      check Alcotest.bool "file written" true (n > 20))

let prop_bfs_path_valid =
  QCheck.Test.make ~name:"BFS paths are valid and shortest" ~count:100
    arbitrary_digraph (fun (n, es) ->
      let g = Digraph.of_edges n es in
      let ok = ref true in
      for src = 0 to n - 1 do
        let dist = Traversal.bfs_distances g src in
        for dst = 0 to n - 1 do
          match Traversal.path g src dst with
          | None -> if dist.(dst) <> max_int then ok := false
          | Some p ->
            if List.length p <> dist.(dst) + 1 then ok := false;
            if List.hd p <> src || List.nth p (List.length p - 1) <> dst then
              ok := false;
            let rec edges_ok = function
              | a :: (b :: _ as rest) -> Digraph.mem_edge g a b && edges_ok rest
              | _ -> true
            in
            if not (edges_ok p) then ok := false
        done
      done;
      !ok)

let suite =
  suite
  @ [
      Alcotest.test_case "dot to_file" `Quick test_dot_to_file;
      qtest prop_bfs_path_valid;
    ]

(* ---------------- DOT escaping ---------------- *)

let test_dot_escape () =
  let e = Dot.escape in
  Alcotest.check Alcotest.string "plain" "abc" (e "abc");
  Alcotest.check Alcotest.string "quote" "say \\\"hi\\\"" (e "say \"hi\"");
  Alcotest.check Alcotest.string "backslash" "a\\\\b" (e "a\\b");
  Alcotest.check Alcotest.string "newline becomes \\n" "a\\nb" (e "a\nb");
  Alcotest.check Alcotest.string "carriage return dropped" "a\\nb" (e "a\r\nb");
  (* the result can always sit inside a double-quoted DOT string: no raw
     quote, no raw line break *)
  let hostile = "l1\n\"l2\"\\\r\nend" in
  let escaped = e hostile in
  String.iter
    (fun c ->
      if c = '\n' || c = '\r' then Alcotest.fail "raw line break survived")
    escaped;
  let unescaped_quote = ref false in
  String.iteri
    (fun i c ->
      if c = '"' && (i = 0 || escaped.[i - 1] <> '\\') then unescaped_quote := true)
    escaped;
  Alcotest.check Alcotest.bool "no unescaped quote" false !unescaped_quote

let suite = suite @ [ Alcotest.test_case "dot escape" `Quick test_dot_escape ]

(* ---------------- Reach: decremental reachability ---------------- *)

(* 0 -> 1 -> 3, 0 -> 2 -> 3, with 3 the sink: two vertex-disjoint routes,
   so cutting one arm leaves everything reachable and cutting both cuts
   the sources off. *)
let diamond () = Csr.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_reach_cut_and_restore () =
  let r = Reach.create (diamond ()) ~sinks:[ 3 ] in
  let check = Alcotest.check Alcotest.bool in
  check "all reach initially" true (Reach.reaches_all r ~sources:[ 0; 1; 2 ]);
  Reach.disable_edge r 1 3;
  check "one arm cut: 1 is off" false (Reach.reaches r 1);
  check "one arm cut: 0 detours" true (Reach.reaches r 0);
  Reach.disable_edge r 2 3;
  check "both arms cut: 0 is off" false (Reach.reaches r 0);
  check "sink still reaches itself" true (Reach.reaches r 3);
  Reach.enable_edge r 1 3;
  check "restore flips 0 back" true (Reach.reaches_all r ~sources:[ 0; 1 ]);
  check "2 still cut" false (Reach.reaches r 2);
  Reach.enable_edge r 2 3;
  check "full restore" true (Reach.reaches_all r ~sources:[ 0; 1; 2 ]);
  Alcotest.check Alcotest.int "nothing left disabled" 0 (Reach.disabled_count r)

let test_reach_counted_disables () =
  let r = Reach.create (diamond ()) ~sinks:[ 3 ] in
  Reach.disable_edge r 2 3;
  (* same edge disabled at two search depths: one enable is not enough *)
  Reach.disable_edge r 1 3;
  Reach.disable_edge r 1 3;
  Alcotest.check Alcotest.int "three instances" 3 (Reach.disabled_count r);
  Reach.enable_edge r 1 3;
  Alcotest.check Alcotest.bool "still one disable pending" false
    (Reach.reaches r 1);
  Reach.enable_edge r 1 3;
  Alcotest.check Alcotest.bool "second enable restores" true
    (Reach.reaches r 1);
  Alcotest.check_raises "over-enable rejected"
    (Invalid_argument "Reach.enable_edge: edge not disabled") (fun () ->
      Reach.enable_edge r 1 3);
  Alcotest.check_raises "unknown edge rejected"
    (Invalid_argument "Reach.disable_edge: no such edge") (fun () ->
      Reach.disable_edge r 3 0)

(* Random graphs, random disable/enable scripts: Reach must agree with a
   naive reverse BFS over the surviving edge multiset at every step. *)
let prop_reach_matches_naive =
  qtest
  @@ QCheck.Test.make ~count:60 ~name:"Reach agrees with naive recompute"
       QCheck.(
         pair (int_range 2 9)
           (pair (list_of_size Gen.(int_range 0 25) (pair small_nat small_nat))
              (list_of_size Gen.(int_range 0 40) (pair bool small_nat))))
       (fun (n, (raw_edges, script)) ->
         let edges =
           List.sort_uniq compare
             (List.map (fun (u, v) -> (u mod n, v mod n)) raw_edges)
         in
         let g = Csr.of_edges n edges in
         let sinks = [ 0 ] in
         let r = Reach.create g ~sinks in
         (* the naive model: multiset of disabled edges as an assoc count *)
         let disabled = Hashtbl.create 16 in
         let count e = Option.value (Hashtbl.find_opt disabled e) ~default:0 in
         let naive_reaches v =
           let live (u, w) = count (u, w) = 0 in
           let seen = Array.make n false in
           let rec go u =
             if not seen.(u) then begin
               seen.(u) <- true;
               List.iter
                 (fun (a, b) -> if b = u && live (a, b) then go a)
                 edges
             end
           in
           List.iter go sinks;
           seen.(v)
         in
         let ok = ref true in
         let step (enable, i) =
           match edges with
           | [] -> ()
           | _ ->
             let e = List.nth edges (i mod List.length edges) in
             let u, v = e in
             if enable then begin
               if count e > 0 then begin
                 Hashtbl.replace disabled e (count e - 1);
                 Reach.enable_edge r u v
               end
             end
             else begin
               Hashtbl.replace disabled e (count e + 1);
               Reach.disable_edge r u v
             end;
             for w = 0 to n - 1 do
               if Reach.reaches r w <> naive_reaches w then ok := false
             done
         in
         List.iter step script;
         !ok)

let suite =
  suite
  @ [
      Alcotest.test_case "reach cut and restore" `Quick
        test_reach_cut_and_restore;
      Alcotest.test_case "reach counted disables" `Quick
        test_reach_counted_disables;
      prop_reach_matches_naive;
    ]

(* ---------------- streaming cycle enumeration ---------------- *)

(* random digraphs where self-loops are common: each vertex gets one with
   probability 1/3 on top of the random edges (which may add more) *)
let arbitrary_digraph_loops =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n ->
      list_size (int_range 0 24) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun edges ->
      list_repeat n (int_range 0 2) >>= fun loops ->
      return
        ( n,
          edges
          @ List.concat (List.mapi (fun v l -> if l = 0 then [ (v, v) ] else []) loops) ))
  in
  QCheck.make gen ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) es)))

let take k l = List.filteri (fun i _ -> i < k) l

let iter_row row v f = Array.iter f (row v)

(* every cycle, collected through the fold without ever stopping *)
let collect ?limits ~n ~row () =
  let cs, exhaustive =
    Cycles.fold_rows ?limits ~n ~iter_succ:(iter_row row)
      (fun p cs -> Cycles.Continue (Cycles.path_to_list p :: cs))
      []
  in
  (List.rev cs, exhaustive)

(* An independent order oracle: a plain depth-first walk of the simple
   paths from each root through larger vertices, successors ascending,
   closing a cycle whenever an edge returns to the root.  Johnson's
   blocking only prunes branches that close no cycle, so without a length
   cap it must emit the same cycles in the same order. *)
let plain_dfs_cycles n succ =
  let out = ref [] in
  for s = 0 to n - 1 do
    let on_path = Array.make n false in
    let rec walk v path =
      on_path.(v) <- true;
      List.iter
        (fun w ->
          if w = s then out := List.rev path :: !out
          else if w > s && not on_path.(w) then walk w (w :: path))
        (succ v);
      on_path.(v) <- false
    in
    walk s [ s ]
  done;
  List.rev !out

let prop_fold_rows_order =
  QCheck.Test.make ~name:"streamed cycles = plain DFS oracle order" ~count:200
    arbitrary_digraph_loops (fun (n, es) ->
      let c = Digraph.freeze (Digraph.of_edges n es) in
      let row v = Array.of_list (Csr.succ c v) in
      let limits = { Cycles.max_cycles = max_int; max_length = n } in
      collect ~limits ~n ~row () = (plain_dfs_cycles n (Csr.succ c), true))

let prop_fold_rows_caps =
  QCheck.Test.make
    ~name:"streamed cycles = enumerate_checked_rows at every cap, stops exact"
    ~count:200 arbitrary_digraph_loops (fun (n, es) ->
      let c = Digraph.freeze (Digraph.of_edges n es) in
      let row v = Array.of_list (Csr.succ c v) in
      let all, all_exhaustive = Cycles.enumerate_checked_rows ~n ~row () in
      let count = List.length all in
      let same limits =
        collect ~limits ~n ~row () = Cycles.enumerate_checked_rows ~limits ~n ~row ()
      in
      (* the cycle cap: the first k cycles, flagged truncated iff k <= count *)
      let capped k =
        let limits = { Cycles.default_limits with max_cycles = k } in
        same limits && collect ~limits ~n ~row () = (take k all, k > count)
      in
      (* a caller's Stop after k cycles has seen exactly the first k *)
      let stopped k =
        let seen, exhaustive =
          Cycles.fold_rows ~n ~iter_succ:(iter_row row)
            (fun p cs ->
              let cs = Cycles.path_to_list p :: cs in
              if List.length cs >= k then Cycles.Stop cs else Cycles.Continue cs)
            []
        in
        List.rev seen = take k all && exhaustive
      in
      all_exhaustive
      && List.for_all capped (List.sort_uniq compare [ 1; 2; max 1 count; count + 1 ])
      && List.for_all
           (fun max_length -> same { Cycles.default_limits with max_length })
           [ 1; 2; 3 ]
      && same { Cycles.max_cycles = 2; max_length = 2 }
      && List.for_all stopped (List.init count (fun i -> i + 1)))

(* ---------------- the flat engine against the list reference ---------------- *)

(* random cycle caps, length caps 1-8 (binding on most graphs with a long
   cycle) and a Stop after 0 (never) to 40 cycles; the engine reads each
   row in descending order, so its own row sort is exercised too *)
let prop_engine_matches_reference =
  QCheck.Test.make ~name:"flat engine = list reference at binding caps and stops"
    ~count:300
    QCheck.(
      pair arbitrary_digraph_loops (triple (int_range 1 40) (int_range 1 8) (int_range 0 40)))
    (fun ((n, es), (max_cycles, max_length, stop_at)) ->
      let c = Digraph.freeze (Digraph.of_edges n es) in
      let row v = Array.of_list (Csr.succ c v) in
      let descending v f =
        let r = row v in
        for i = Array.length r - 1 downto 0 do
          f r.(i)
        done
      in
      let limits = { Cycles.max_cycles; max_length } in
      Cycles_ref.agrees ~limits ~stop_at ~n ~row (fun f init ->
          Cycles.fold_rows ~limits ~n ~iter_succ:descending f init))

(* without a cut, Johnson's blocking only prunes branches that close no
   cycle: a fold that reports exhaustive under a length cap has found
   every cycle, in the uncapped order *)
let prop_exhaustive_means_every_cycle =
  QCheck.Test.make ~name:"an exhaustive flag under a length cap means every cycle"
    ~count:300 arbitrary_digraph_loops (fun (n, es) ->
      let c = Digraph.freeze (Digraph.of_edges n es) in
      let row v = Array.of_list (Csr.succ c v) in
      List.for_all
        (fun max_length ->
          let cs, exhaustive =
            collect ~limits:{ Cycles.max_cycles = max_int; max_length } ~n ~row ()
          in
          (not exhaustive) || cs = plain_dfs_cycles n (Csr.succ c))
        [ 1; 2; 3 ])

let suite =
  suite
  @ [
      qtest prop_fold_rows_order;
      qtest prop_fold_rows_caps;
      qtest prop_engine_matches_reference;
      qtest prop_exhaustive_means_every_cycle;
    ]
