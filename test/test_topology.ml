(* Tests for dfr_topology: meshes, hypercubes, tori. *)

open Dfr_topology

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

(* ---------------- construction ---------------- *)

let test_sizes () =
  check Alcotest.int "mesh 3x4" 12 (Topology.num_nodes (Topology.mesh [| 3; 4 |]));
  check Alcotest.int "hypercube 5" 32 (Topology.num_nodes (Topology.hypercube 5));
  check Alcotest.int "torus 3x5" 15 (Topology.num_nodes (Topology.torus [| 3; 5 |]));
  check Alcotest.int "ring 7" 7 (Topology.num_nodes (Topology.ring 7));
  check Alcotest.int "hypercube dims" 4 (Topology.dimensions (Topology.hypercube 4));
  check Alcotest.int "mesh radix" 4 (Topology.radix (Topology.mesh [| 3; 4 |]) 1)

let test_bad_construction () =
  Alcotest.check_raises "empty" (Invalid_argument "Topology: no dimensions") (fun () ->
      ignore (Topology.mesh [||]));
  Alcotest.check_raises "torus radix 2"
    (Invalid_argument "Topology: torus radix must be >= 3") (fun () ->
      ignore (Topology.torus [| 2; 4 |]))

let test_coord_roundtrip () =
  let t = Topology.mesh [| 3; 4; 2 |] in
  for node = 0 to Topology.num_nodes t - 1 do
    check Alcotest.int "roundtrip" node
      (Topology.node_of_coord t (Topology.coord_of_node t node))
  done

let test_coordinate_accessor () =
  let t = Topology.mesh [| 3; 4 |] in
  let node = Topology.node_of_coord t [| 2; 3 |] in
  check Alcotest.int "dim 0" 2 (Topology.coordinate t node 0);
  check Alcotest.int "dim 1" 3 (Topology.coordinate t node 1)

(* ---------------- neighbours ---------------- *)

let test_mesh_boundaries () =
  let t = Topology.mesh [| 3; 3 |] in
  let corner = Topology.node_of_coord t [| 0; 0 |] in
  check Alcotest.bool "no 0-" true (Topology.neighbor t corner 0 Topology.Minus = None);
  check Alcotest.bool "no 1-" true (Topology.neighbor t corner 1 Topology.Minus = None);
  check Alcotest.int "corner degree" 2 (List.length (Topology.neighbors t corner));
  let center = Topology.node_of_coord t [| 1; 1 |] in
  check Alcotest.int "center degree" 4 (List.length (Topology.neighbors t center))

let test_torus_wrap () =
  let t = Topology.ring 5 in
  check (Alcotest.option Alcotest.int) "wrap plus" (Some 0)
    (Topology.neighbor t 4 0 Topology.Plus);
  check (Alcotest.option Alcotest.int) "wrap minus" (Some 4)
    (Topology.neighbor t 0 0 Topology.Minus)

let test_hypercube_neighbors () =
  let t = Topology.hypercube 4 in
  for node = 0 to 15 do
    let ns = Topology.neighbors t node in
    check Alcotest.int "degree n" 4 (List.length ns);
    List.iter
      (fun (_, _, v) -> check Alcotest.int "xor popcount 1" 1 (popcount (node lxor v)))
      ns
  done

let prop_neighbor_symmetric =
  QCheck.Test.make ~name:"neighbour relation symmetric" ~count:100
    QCheck.(int_range 0 8)
    (fun node ->
      let t = Topology.mesh [| 3; 3 |] in
      List.for_all
        (fun (_, _, v) ->
          List.exists (fun (_, _, u) -> u = node) (Topology.neighbors t v))
        (Topology.neighbors t node))

(* ---------------- distance & minimal moves ---------------- *)

let test_mesh_distance () =
  let t = Topology.mesh [| 4; 4 |] in
  let a = Topology.node_of_coord t [| 0; 0 |] in
  let b = Topology.node_of_coord t [| 3; 2 |] in
  check Alcotest.int "manhattan" 5 (Topology.distance t a b)

let test_torus_distance_wraps () =
  let t = Topology.ring 6 in
  check Alcotest.int "short way" 2 (Topology.distance t 0 4);
  check Alcotest.int "zero" 0 (Topology.distance t 3 3)

let test_minimal_moves_mesh () =
  let t = Topology.mesh [| 4; 4 |] in
  let src = Topology.node_of_coord t [| 1; 3 |] in
  let dst = Topology.node_of_coord t [| 3; 0 |] in
  let moves = Topology.minimal_moves t ~src ~dst in
  check Alcotest.int "two dims" 2 (List.length moves);
  check Alcotest.bool "0 plus" true (List.mem (0, Topology.Plus) moves);
  check Alcotest.bool "1 minus" true (List.mem (1, Topology.Minus) moves)

let test_minimal_moves_torus_tie () =
  let t = Topology.ring 6 in
  (* distance 3 both ways: both directions minimal *)
  let moves = Topology.minimal_moves t ~src:0 ~dst:3 in
  check Alcotest.int "both directions" 2 (List.length moves);
  (* distance 2 the short way only *)
  let moves = Topology.minimal_moves t ~src:0 ~dst:4 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "minus only"
    [ (0, false) ]
    (List.map (fun (d, dir) -> (d, dir = Topology.Plus)) moves)

let any_topology =
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          return (Topology.mesh [| 3; 3 |]);
          return (Topology.mesh [| 4; 2 |]);
          return (Topology.hypercube 3);
          return (Topology.torus [| 4; 3 |]);
          return (Topology.ring 5);
        ])
    ~print:Topology.name

let prop_minimal_moves_decrease_distance =
  QCheck.Test.make ~name:"every minimal move decreases distance by 1" ~count:200
    QCheck.(pair any_topology (pair small_nat small_nat))
    (fun (t, (a, b)) ->
      let n = Topology.num_nodes t in
      let src = a mod n and dst = b mod n in
      src = dst
      || List.for_all
           (fun (dim, dir) ->
             match Topology.neighbor t src dim dir with
             | None -> false
             | Some v -> Topology.distance t v dst = Topology.distance t src dst - 1)
           (Topology.minimal_moves t ~src ~dst))

(* hop distances from [src] over [g]'s edges, [max_int] where unreachable *)
let bfs_distances g src =
  let dist = Array.make (Dfr_graph.Digraph.num_vertices g) max_int in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Dfr_graph.Digraph.iter_succ
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      g u
  done;
  dist

let prop_distance_matches_bfs =
  QCheck.Test.make ~name:"distance agrees with BFS over channels" ~count:60
    QCheck.(pair any_topology small_nat)
    (fun (t, a) ->
      let n = Topology.num_nodes t in
      let src = a mod n in
      let g = Topology.to_digraph t in
      let d = bfs_distances g src in
      let ok = ref true in
      for v = 0 to n - 1 do
        if d.(v) <> Topology.distance t src v then ok := false
      done;
      !ok)

let prop_minimal_moves_nonempty =
  QCheck.Test.make ~name:"distinct nodes always have a minimal move" ~count:200
    QCheck.(pair any_topology (pair small_nat small_nat))
    (fun (t, (a, b)) ->
      let n = Topology.num_nodes t in
      let src = a mod n and dst = b mod n in
      src = dst || Topology.minimal_moves t ~src ~dst <> [])

(* ---------------- channels ---------------- *)

let test_channel_counts () =
  (* mesh AxB: directed channels = 2*((A-1)*B + A*(B-1)) *)
  let t = Topology.mesh [| 3; 4 |] in
  check Alcotest.int "mesh channels" (2 * ((2 * 4) + (3 * 3)))
    (List.length (Topology.channels t));
  let h = Topology.hypercube 3 in
  check Alcotest.int "hypercube channels" 24 (List.length (Topology.channels h));
  let r = Topology.ring 5 in
  check Alcotest.int "ring channels" 10 (List.length (Topology.channels r))

let test_is_torus () =
  check Alcotest.bool "mesh" false (Topology.is_torus (Topology.mesh [| 3; 3 |]));
  check Alcotest.bool "torus" true (Topology.is_torus (Topology.torus [| 3; 3 |]));
  check Alcotest.bool "hypercube" false (Topology.is_torus (Topology.hypercube 2))

let test_pp_node () =
  let t = Topology.mesh [| 3; 4 |] in
  let s = Format.asprintf "%a" (Topology.pp_node t) (Topology.node_of_coord t [| 2; 1 |]) in
  check Alcotest.string "coords" "(2,1)" s

let suite =
  [
    Alcotest.test_case "sizes" `Quick test_sizes;
    Alcotest.test_case "bad construction" `Quick test_bad_construction;
    Alcotest.test_case "coordinate roundtrip" `Quick test_coord_roundtrip;
    Alcotest.test_case "coordinate accessor" `Quick test_coordinate_accessor;
    Alcotest.test_case "mesh boundaries" `Quick test_mesh_boundaries;
    Alcotest.test_case "torus wrap" `Quick test_torus_wrap;
    Alcotest.test_case "hypercube neighbours" `Quick test_hypercube_neighbors;
    Alcotest.test_case "mesh distance" `Quick test_mesh_distance;
    Alcotest.test_case "torus distance wraps" `Quick test_torus_distance_wraps;
    Alcotest.test_case "minimal moves mesh" `Quick test_minimal_moves_mesh;
    Alcotest.test_case "minimal moves torus tie" `Quick test_minimal_moves_torus_tie;
    Alcotest.test_case "channel counts" `Quick test_channel_counts;
    Alcotest.test_case "is_torus" `Quick test_is_torus;
    Alcotest.test_case "pp node" `Quick test_pp_node;
    qtest prop_neighbor_symmetric;
    qtest prop_minimal_moves_decrease_distance;
    qtest prop_distance_matches_bfs;
    qtest prop_minimal_moves_nonempty;
  ]

(* ---------------- textual topology grammar ---------------- *)

let test_of_string_ok () =
  let ok s = match Topology.of_string s with
    | Ok t -> t
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  check Alcotest.int "mesh:3x4" 12 (Topology.num_nodes (ok "mesh:3x4"));
  check Alcotest.int "torus:3x3" 9 (Topology.num_nodes (ok "torus:3x3"));
  check Alcotest.int "hypercube:3" 8 (Topology.num_nodes (ok "hypercube:3"));
  check Alcotest.int "ring:5" 5 (Topology.num_nodes (ok "ring:5"));
  check Alcotest.int "fullmesh:6" 6 (Topology.num_nodes (ok "fullmesh:6"));
  (* a*h+1 = 3 groups of 2 routers *)
  check Alcotest.int "dragonfly:2x1" 6 (Topology.num_nodes (ok "dragonfly:2x1"));
  check Alcotest.int "dragonfly:2x1x3" 6 (Topology.num_nodes (ok "dragonfly:2x1x3"));
  (* k^n hosts + n levels of k^(n-1) switches *)
  check Alcotest.int "kntree:2x2" 8 (Topology.num_nodes (ok "kntree:2x2"));
  check Alcotest.int "fattree:2x3" 20 (Topology.num_nodes (ok "fattree:2x3"))

let test_of_string_errors () =
  let err s = match Topology.of_string s with
    | Ok _ -> Alcotest.failf "%s: expected an error" s
    | Error e -> e
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let expect s needle =
    let e = err s in
    if not (contains e needle) then
      Alcotest.failf "%s: error %S does not mention %S" s e needle
  in
  (* the offending token and the valid range must both be named *)
  expect "mesh:0x4" "radix 0";
  expect "mesh:0x4" ">= 1";
  expect "hypercube:99" "99";
  expect "hypercube:99" "1..10";
  expect "ring:2" ">= 3";
  expect "torus:2x2" ">= 3";
  expect "mesh:3xbanana" "banana";
  expect "blorp:3" "blorp";
  expect "mesh:" "mesh";
  expect "fullmesh:1" ">= 2";
  (* the fully-subscribed constraint names the one valid group count *)
  expect "dragonfly:2x1x4" "a*h + 1";
  expect "dragonfly:2" "2 or 3";
  expect "kntree:2x7" "1..6";
  (match Topology.of_string "kntree:1x2" with
  | Ok _ -> Alcotest.fail "kntree:1x2: expected an error"
  | Error _ -> ())

(* ---------------- irregular topologies ---------------- *)

let test_fullmesh_structure () =
  let t = Topology.fullmesh 5 in
  check Alcotest.int "nodes" 5 (Topology.num_nodes t);
  check (Alcotest.option Alcotest.int) "params" (Some 5) (Topology.fullmesh_params t);
  check Alcotest.bool "not a grid" false (Topology.is_grid t);
  check Alcotest.int "channels" (5 * 4) (List.length (Topology.channels t));
  for u = 0 to 4 do
    for v = 0 to 4 do
      if u <> v then check Alcotest.int "one hop" 1 (Topology.distance t u v)
    done
  done

let test_dragonfly_structure () =
  let t = Topology.dragonfly ~a:2 ~h:1 () in
  check Alcotest.int "nodes" 6 (Topology.num_nodes t);
  check
    (Alcotest.option (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int))
    "params" (Some (2, 1, 3))
    (Topology.dragonfly_params t);
  check (Alcotest.option Alcotest.int) "not a fullmesh" None
    (Topology.fullmesh_params t);
  (* every router: a-1 local + h global ports *)
  let chans = Topology.channels t in
  check Alcotest.int "channels" (6 * 2) (List.length chans);
  List.iter
    (fun (u, v) -> check Alcotest.bool "bidirectional" true (List.mem (v, u) chans))
    chans;
  (* palmtree wiring reaches everywhere within local-global-local *)
  for u = 0 to 5 do
    for v = 0 to 5 do
      if u <> v then
        check Alcotest.bool "diameter <= 3" true (Topology.distance t u v <= 3)
    done
  done

let test_kntree_structure () =
  let t = Topology.kary_ntree ~k:2 ~n:2 in
  (* 4 hosts + 2 levels of 2 switches *)
  check Alcotest.int "nodes" 8 (Topology.num_nodes t);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "params" (Some (2, 2)) (Topology.kntree_params t);
  (* hosts hang off exactly one leaf switch *)
  for host = 0 to 3 do
    check Alcotest.int "host degree" 1 (List.length (Topology.neighbors t host))
  done;
  let chans = Topology.channels t in
  List.iter
    (fun (u, v) -> check Alcotest.bool "bidirectional" true (List.mem (v, u) chans))
    chans;
  (* worst case host-to-host: up n levels to a root, down n levels *)
  for u = 0 to 3 do
    for v = 0 to 3 do
      if u <> v then
        check Alcotest.bool "host distance <= 2n" true (Topology.distance t u v <= 4)
    done
  done

let suite =
  suite
  @ [
      Alcotest.test_case "topology of_string" `Quick test_of_string_ok;
      Alcotest.test_case "topology of_string errors" `Quick test_of_string_errors;
      Alcotest.test_case "fullmesh structure" `Quick test_fullmesh_structure;
      Alcotest.test_case "dragonfly structure" `Quick test_dragonfly_structure;
      Alcotest.test_case "k-ary n-tree structure" `Quick test_kntree_structure;
    ]
