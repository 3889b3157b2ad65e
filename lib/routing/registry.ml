open Dfr_topology
open Dfr_network

type family =
  | Hypercube_family
  | Mesh_family of { vcs : int }
  | Torus_family of { vcs : int }
  | Mesh_saf_family of { classes : int }
  | Hop_class_family
  | Vct_family of { classes : int }
  | Fullmesh_family
  | Dragonfly_family
  | Fattree_family
  | Custom_family

type entry = {
  name : string;
  family : family;
  algo : Algo.t;
  expected_deadlock_free : bool option;
  description : string;
}

let entry name family algo expected description =
  { name; family; algo; expected_deadlock_free = expected; description }

let all =
  [
    entry "ecube" Hypercube_family Hypercube_wormhole.ecube (Some true)
      "nonadaptive dimension-order hypercube routing";
    entry "duato" Hypercube_family Hypercube_wormhole.duato (Some true)
      "fully adaptive hypercube routing with a dimension-order escape";
    entry "efa" Hypercube_family Hypercube_wormhole.efa (Some true)
      "the paper's Enhanced Fully Adaptive hypercube routing";
    entry "efa-relaxed" Hypercube_family Hypercube_wormhole.efa_relaxed
      (Some false) "Theorem 6's broken relaxation of EFA";
    entry "unrestricted-hypercube" Hypercube_family Hypercube_wormhole.unrestricted
      (Some false) "minimal adaptive with no restriction (control)";
    entry "dimension-order" (Mesh_family { vcs = 1 }) Mesh_wormhole.dimension_order
      (Some true) "XY routing generalized to n-dimensional meshes";
    entry "duato-mesh" (Mesh_family { vcs = 2 }) Mesh_wormhole.duato_mesh
      (Some true) "fully adaptive mesh routing with a dimension-order escape";
    entry "west-first" (Mesh_family { vcs = 1 }) Mesh_wormhole.west_first
      (Some true) "turn-model west-first on 2-D meshes";
    entry "north-last" (Mesh_family { vcs = 1 }) Mesh_wormhole.north_last
      (Some true) "turn-model north-last on 2-D meshes";
    entry "negative-first" (Mesh_family { vcs = 1 }) Mesh_wormhole.negative_first
      (Some true) "turn-model negative-first on n-dimensional meshes";
    entry "odd-even" (Mesh_family { vcs = 1 }) Mesh_wormhole.odd_even (Some true)
      "Chiu's odd-even turn model on 2-D meshes";
    entry "planar-adaptive" (Mesh_family { vcs = 3 }) Mesh_wormhole.planar_adaptive
      (Some true) "Chien-Kim planar-adaptive routing on n-dimensional meshes";
    entry "double-y" (Mesh_family { vcs = 2 }) Mesh_wormhole.double_y (Some true)
      "fully adaptive minimal mesh routing with two Y virtual channels";
    entry "unrestricted-mesh" (Mesh_family { vcs = 1 }) Mesh_wormhole.unrestricted
      (Some false) "minimal adaptive mesh routing with no restriction (control)";
    entry "dateline" (Torus_family { vcs = 2 }) Torus_wormhole.dateline (Some true)
      "Dally-Seitz-style dateline routing on k-ary n-cubes";
    entry "duato-torus" (Torus_family { vcs = 3 }) Torus_wormhole.duato_torus
      (Some true) "fully adaptive torus routing with a dateline escape";
    entry "unrestricted-torus" (Torus_family { vcs = 1 }) Torus_wormhole.unrestricted
      (Some false) "minimal adaptive torus routing (control; wrap cycles)";
    entry "two-buffer" (Mesh_saf_family { classes = 2 }) Mesh_saf.two_buffer
      (Some true) "Pifarre et al.'s Two-Buffer store-and-forward mesh routing";
    entry "single-buffer" (Mesh_saf_family { classes = 1 }) Mesh_saf.single_buffer
      (Some false) "one-buffer greedy store-and-forward routing (control)";
    entry "hop-class" Hop_class_family Mesh_saf.hop_class
      (Some true) "Gunther's hop-ordered store-and-forward buffer classes";
    entry "two-buffer-vct" (Vct_family { classes = 2 }) Mesh_saf.two_buffer
      (Some true) "Two-Buffer routing over virtual cut-through switching";
    entry "fullmesh-direct" Fullmesh_family Fullmesh_routing.direct (Some true)
      "single-hop routing on fully connected networks";
    entry "dragonfly-minimal" Dragonfly_family Dragonfly_routing.minimal
      (Some true) "minimal l-g-l dragonfly routing, post-global hops on vc1";
    entry "dragonfly-minimal-1vc" Dragonfly_family Dragonfly_routing.minimal_1vc
      (Some false) "minimal dragonfly routing on one vc (control; group cycles)";
    entry "kntree-updown" Fattree_family Kntree_routing.updown (Some true)
      "up*/down* fat-tree routing with a vc0 descent for off-cone sources";
    entry "duato-incoherent" Custom_family Incoherent_example.algo (Some false)
      "Duato's incoherent example (Figures 1-2)";
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names () = List.map (fun e -> e.name) all

let default_topology e =
  match e.family with
  | Hypercube_family -> Some (Topology.hypercube 3)
  | Mesh_family _ | Mesh_saf_family _ | Hop_class_family | Vct_family _ ->
    Some (Topology.mesh [| 4; 4 |])
  | Torus_family _ -> Some (Topology.torus [| 4; 4 |])
  | Fullmesh_family -> Some (Topology.fullmesh 5)
  | Dragonfly_family -> Some (Topology.dragonfly ~a:2 ~h:1 ())
  | Fattree_family -> Some (Topology.kary_ntree ~k:2 ~n:2)
  | Custom_family -> None

let network_for e topo =
  let topo = match topo with Some t -> Some t | None -> default_topology e in
  match (e.family, topo) with
  | Hypercube_family, Some t -> Net.wormhole t ~vcs:2
  | Mesh_family { vcs }, Some t -> Net.wormhole t ~vcs
  | Torus_family { vcs }, Some t -> Net.wormhole t ~vcs
  | Mesh_saf_family { classes }, Some t -> Net.store_and_forward t ~classes
  | Hop_class_family, Some t ->
    (* one class per hop; never fewer than the 7 the 4x4 default has
       always used, so every instance that fitted before is unchanged *)
    Net.store_and_forward t ~classes:(max 7 (Mesh_saf.diameter t + 1))
  | Vct_family { classes }, Some t -> Net.virtual_cut_through t ~classes
  | Fullmesh_family, Some t -> Net.wormhole t ~vcs:1
  | (Dragonfly_family | Fattree_family), Some t -> Net.wormhole t ~vcs:2
  | Custom_family, _ -> Incoherent_example.network ()
  | _, None -> invalid_arg "Registry.network_for: topology required"
