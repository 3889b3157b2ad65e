(* Tests for dfr_network: buffers and buffer-level networks. *)

open Dfr_topology
open Dfr_network

let check = Alcotest.check

let test_wormhole_buffer_count () =
  (* hypercube-3, 2 vcs: 24 directed channels * 2 vcs + 8 inj + 8 del *)
  let net = Net.wormhole (Topology.hypercube 3) ~vcs:2 in
  check Alcotest.int "buffers" (48 + 16) (Net.num_buffers net);
  check Alcotest.int "nodes" 8 (Net.num_nodes net);
  check Alcotest.int "vcs" 2 (Net.vcs net)

let test_saf_buffer_count () =
  let net = Net.store_and_forward (Topology.mesh [| 3; 3 |]) ~classes:2 in
  check Alcotest.int "buffers" (18 + 18) (Net.num_buffers net);
  check Alcotest.bool "switching" true (Net.switching net = Net.Store_and_forward)

let test_vct_switching () =
  let net = Net.virtual_cut_through (Topology.mesh [| 2; 2 |]) ~classes:1 in
  check Alcotest.bool "switching" true (Net.switching net = Net.Virtual_cut_through)

let test_endpoints () =
  let net = Net.wormhole (Topology.hypercube 2) ~vcs:1 in
  for node = 0 to 3 do
    let inj = Net.injection net node and del = Net.delivery net node in
    check Alcotest.bool "inj kind" true (Buf.is_injection inj);
    check Alcotest.bool "del kind" true (Buf.is_delivery del);
    check Alcotest.int "inj node" node (Buf.head_node inj);
    check Alcotest.int "del node" node (Buf.head_node del);
    check Alcotest.bool "not transit" false (Buf.is_transit inj)
  done

let test_channel_lookup () =
  let topo = Topology.hypercube 3 in
  let net = Net.wormhole topo ~vcs:2 in
  for src = 0 to 7 do
    List.iter
      (fun (dim, dir, dst) ->
        for vc = 0 to 1 do
          let b = Net.channel net ~src ~dim ~dir ~vc in
          match Buf.kind b with
          | Buf.Channel c ->
            check Alcotest.int "src" src c.src;
            check Alcotest.int "dst" dst c.dst;
            check Alcotest.int "vc" vc c.vc;
            check Alcotest.int "head at dst" dst (Buf.head_node b);
            check Alcotest.int "source at src" src (Buf.source_node b)
          | _ -> Alcotest.fail "not a channel"
        done)
      (Topology.neighbors topo src)
  done

let test_channel_lookup_missing () =
  let net = Net.wormhole (Topology.mesh [| 3; 3 |]) ~vcs:1 in
  Alcotest.check_raises "off-mesh channel" Not_found (fun () ->
      ignore (Net.channel net ~src:0 ~dim:0 ~dir:Topology.Minus ~vc:0))

let test_node_buffer_lookup () =
  let net = Net.store_and_forward (Topology.mesh [| 2; 3 |]) ~classes:2 in
  for node = 0 to 5 do
    for cls = 0 to 1 do
      let b = Net.node_buffer net ~node ~cls in
      check Alcotest.int "head node" node (Buf.head_node b);
      check (Alcotest.option Alcotest.int) "cls" (Some cls) (Buf.cls b)
    done
  done;
  Alcotest.check_raises "missing class" Not_found (fun () ->
      ignore (Net.node_buffer net ~node:0 ~cls:5))

let test_channels_from () =
  let topo = Topology.hypercube 3 in
  let net = Net.wormhole topo ~vcs:2 in
  for node = 0 to 7 do
    let outs = Net.channels_from net node in
    check Alcotest.int "out channels" 6 (List.length outs);
    List.iter
      (fun b -> check Alcotest.int "source" node (Buf.source_node b))
      outs
  done

let test_transit_buffers () =
  let net = Net.wormhole (Topology.hypercube 2) ~vcs:1 in
  check Alcotest.int "transit count" 8 (List.length (Net.transit_buffers net))

let test_buffer_ids_dense () =
  let net = Net.wormhole (Topology.hypercube 2) ~vcs:2 in
  Array.iteri
    (fun i b -> check Alcotest.int "id dense" i (Buf.id b))
    (Net.buffers net)

let test_custom_network () =
  let net =
    Net.custom ~name:"tri" ~switching:Net.Wormhole ~num_nodes:3
      ~channels:[ (0, 1, 0); (1, 2, 0); (2, 0, 0); (0, 1, 1) ]
  in
  check Alcotest.int "buffers" (4 + 6) (Net.num_buffers net);
  let b = Net.find_custom_channel net ~src:0 ~dst:1 ~vc:1 in
  check Alcotest.int "head" 1 (Buf.head_node b);
  check Alcotest.bool "no topology" true (Net.topology net = None);
  Alcotest.check_raises "topology_exn" (Invalid_argument "Net.topology_exn: custom network")
    (fun () -> ignore (Net.topology_exn net));
  check Alcotest.int "outgoing from 0" 2 (List.length (Net.channels_from net 0))

let test_describe () =
  let topo = Topology.hypercube 2 in
  let net = Net.wormhole topo ~vcs:2 in
  let b = Net.channel net ~src:0 ~dim:1 ~dir:Topology.Plus ~vc:0 in
  check Alcotest.string "paper notation" "B1+^1@(0,0)" (Net.describe_buffer net (Buf.id b));
  let b2 = Net.channel net ~src:3 ~dim:0 ~dir:Topology.Minus ~vc:1 in
  check Alcotest.string "paper notation 2" "B2-^0@(1,1)" (Net.describe_buffer net (Buf.id b2));
  let saf = Net.store_and_forward (Topology.mesh [| 2; 2 |]) ~classes:2 in
  let a = Net.node_buffer saf ~node:2 ~cls:0 in
  check Alcotest.string "A buffer" "A@(0,1)" (Net.describe_buffer saf (Buf.id a))

let test_invalid_args () =
  Alcotest.check_raises "vcs 0" (Invalid_argument "Net.wormhole: vcs must be >= 1")
    (fun () -> ignore (Net.wormhole (Topology.hypercube 2) ~vcs:0));
  Alcotest.check_raises "classes 0" (Invalid_argument "Net: classes must be >= 1")
    (fun () -> ignore (Net.store_and_forward (Topology.mesh [| 2; 2 |]) ~classes:0))

(* Every catalogue network, and a packet-buffered custom one with two
   channels into one (node, class): each topology channel is found by its
   own coordinates and each node buffer by its node and class, the last
   buffer created winning a repeated pair.  Every other coordinate in
   -1 .. bound, for source, dimension (or port), both directions and vc,
   and node and class, raises Not_found: out-of-range values, channels
   a mesh boundary lacks, channel lookups on packet-buffered and custom
   networks, node-buffer lookups on wormhole ones. *)
let test_lookups_by_coordinates () =
  let saf_custom =
    Net.custom ~name:"saf-tri" ~switching:Net.Store_and_forward ~num_nodes:3
      ~channels:[ (0, 1, 0); (2, 1, 0); (1, 2, 1) ]
  in
  let nets =
    ("saf-tri", saf_custom)
    :: List.map
         (fun (e : Dfr_routing.Registry.entry) ->
           (e.Dfr_routing.Registry.name, Dfr_routing.Registry.network_for e None))
         Dfr_routing.Registry.all
  in
  let found f = match f () with b -> Some (Buf.id b) | exception Not_found -> None in
  let range bound = List.init (bound + 2) (fun i -> i - 1) in
  let packet_buffered = ref 0 in
  List.iter
    (fun (name, net) ->
      let channels = Hashtbl.create 64 and node_buffers = Hashtbl.create 64 in
      let dims = ref 0 in
      Array.iter
        (fun b ->
          match Buf.kind b with
          | Buf.Channel { src; dim; dir; vc; _ } ->
            dims := max !dims (dim + 1);
            if Net.topology net <> None then
              Hashtbl.replace channels (src, dim, dir, vc) (Buf.id b)
          | Buf.Node_buffer { node; cls } ->
            Hashtbl.replace node_buffers (node, cls) (Buf.id b)
          | Buf.Injection _ | Buf.Delivery _ -> ())
        (Net.buffers net);
      Option.iter
        (fun topo ->
          for src = 0 to Net.num_nodes net - 1 do
            List.iter
              (fun (dim, _, _) -> dims := max !dims (dim + 1))
              (Topology.neighbors topo src)
          done)
        (Net.topology net);
      if Net.switching net <> Net.Wormhole then incr packet_buffered;
      List.iter
        (fun src ->
          List.iter
            (fun dim ->
              List.iter
                (fun dir ->
                  List.iter
                    (fun vc ->
                      let want = Hashtbl.find_opt channels (src, dim, dir, vc) in
                      if found (fun () -> Net.channel net ~src ~dim ~dir ~vc) <> want then
                        Alcotest.failf "%s: channel src %d dim %d %s vc %d" name src dim
                          (if dir = Topology.Plus then "+" else "-")
                          vc)
                    (range (Net.vcs net)))
                [ Topology.Plus; Topology.Minus ])
            (range !dims))
        (range (Net.num_nodes net));
      List.iter
        (fun node ->
          List.iter
            (fun cls ->
              if
                found (fun () -> Net.node_buffer net ~node ~cls)
                <> Hashtbl.find_opt node_buffers (node, cls)
              then Alcotest.failf "%s: node buffer %d class %d" name node cls)
            (range (Net.vcs net)))
        (range (Net.num_nodes net)))
    nets;
  check Alcotest.bool "packet-buffered networks covered" true (!packet_buffered > 1);
  (* ids: three injection, three delivery, then the channels in order *)
  check Alcotest.int "repeated (node, class): the last buffer" 7
    (Buf.id (Net.node_buffer saf_custom ~node:1 ~cls:0))

let suite =
  [
    Alcotest.test_case "wormhole buffer count" `Quick test_wormhole_buffer_count;
    Alcotest.test_case "saf buffer count" `Quick test_saf_buffer_count;
    Alcotest.test_case "vct switching" `Quick test_vct_switching;
    Alcotest.test_case "endpoint buffers" `Quick test_endpoints;
    Alcotest.test_case "channel lookup" `Quick test_channel_lookup;
    Alcotest.test_case "channel lookup missing" `Quick test_channel_lookup_missing;
    Alcotest.test_case "node buffer lookup" `Quick test_node_buffer_lookup;
    Alcotest.test_case "channels from node" `Quick test_channels_from;
    Alcotest.test_case "transit buffers" `Quick test_transit_buffers;
    Alcotest.test_case "buffer ids dense" `Quick test_buffer_ids_dense;
    Alcotest.test_case "custom network" `Quick test_custom_network;
    Alcotest.test_case "describe buffers" `Quick test_describe;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "lookups by coordinates (catalogue)" `Quick
      test_lookups_by_coordinates;
  ]
