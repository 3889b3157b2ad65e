open Dfr_topology

type switching = Store_and_forward | Virtual_cut_through | Wormhole

type t = {
  name : string;
  switching : switching;
  num_nodes : int;
  buffers : Buf.t array;
  injection : int array; (* node -> buffer id *)
  delivery : int array;
  dims : int; (* a grid's dimensions or a node's ports; 0: no channel ids *)
  channel_ids : int array; (* ((src * dims + dim) * 2 + plus) * vcs + vc -> id *)
  custom_index : (int * int * int, int) Hashtbl.t; (* (src, dst, vc) -> id *)
  node_buffer_ids : int array; (* node * vcs + cls -> id; -1 in either array: none *)
  outgoing : int list array; (* node -> channel buffer ids from that node *)
  topology : Topology.t option;
  vcs : int;
}

let name t = t.name
let switching t = t.switching
let num_nodes t = t.num_nodes
let num_buffers t = Array.length t.buffers
let topology t = t.topology

let topology_exn t =
  match t.topology with
  | Some topo -> topo
  | None -> invalid_arg "Net.topology_exn: custom network"

let buffer t id = t.buffers.(id)
let buffers t = t.buffers
let injection t node = t.buffers.(t.injection.(node))
let delivery t node = t.buffers.(t.delivery.(node))

let channel_slot ~dims ~vcs ~src ~dim ~dir ~vc =
  let plus = match dir with Topology.Plus -> 1 | Topology.Minus -> 0 in
  (((((src * dims) + dim) * 2) + plus) * vcs) + vc

let named t id = if id < 0 then raise Not_found else t.buffers.(id)

let channel t ~src ~dim ~dir ~vc =
  if src < 0 || src >= t.num_nodes || dim < 0 || dim >= t.dims || vc < 0 || vc >= t.vcs then
    raise Not_found;
  named t t.channel_ids.(channel_slot ~dims:t.dims ~vcs:t.vcs ~src ~dim ~dir ~vc)

let node_buffer t ~node ~cls =
  if node < 0 || node >= t.num_nodes || cls < 0 || cls >= t.vcs then raise Not_found;
  named t t.node_buffer_ids.((node * t.vcs) + cls)

let find_custom_channel t ~src ~dst ~vc = t.buffers.(Hashtbl.find t.custom_index (src, dst, vc))
let channels_from t node = List.rev_map (fun id -> t.buffers.(id)) t.outgoing.(node) |> List.rev

let transit_buffers t =
  Array.to_list t.buffers |> List.filter Buf.is_transit

let vcs t = t.vcs
let describe_buffer t id =
  match t.topology with
  | Some topo -> Buf.describe topo t.buffers.(id)
  | None ->
    let b = t.buffers.(id) in
    (match Buf.kind b with
    | Buf.Injection n -> Printf.sprintf "inj@n%d" n
    | Buf.Delivery n -> Printf.sprintf "del@n%d" n
    | Buf.Channel { src; dst; vc; _ } -> Printf.sprintf "q[%d->%d]%d" src dst (vc + 1)
    | Buf.Node_buffer { node; cls } ->
      Printf.sprintf "%c@n%d" (Char.chr (Char.code 'A' + cls)) node)

type builder = {
  mutable acc : Buf.t list; (* reversed *)
  mutable next : int;
}

let new_builder () = { acc = []; next = 0 }

let push b kind =
  let id = b.next in
  b.next <- id + 1;
  b.acc <- { Buf.id; kind } :: b.acc;
  id

let finish b = Array.of_list (List.rev b.acc)

(* [fill] writes the ids, a repeated key keeping the last *)
let base ~name ~switching ~num_nodes ~topology ~vcs ?(dims = 0) fill =
  let bld = new_builder () in
  let injection = Array.init num_nodes (fun n -> push bld (Buf.Injection n)) in
  let delivery = Array.init num_nodes (fun n -> push bld (Buf.Delivery n)) in
  let channel_ids = Array.make (num_nodes * dims * 2 * vcs) (-1) in
  let custom_index = Hashtbl.create 64 in
  let node_buffer_ids = Array.make (num_nodes * vcs) (-1) in
  let outgoing = Array.make num_nodes [] in
  fill bld ~channel_ids ~custom_index ~node_buffer_ids ~outgoing;
  Array.iteri (fun n ids -> outgoing.(n) <- List.rev ids) outgoing;
  {
    name;
    switching;
    num_nodes;
    buffers = finish bld;
    injection;
    delivery;
    dims;
    channel_ids;
    custom_index;
    node_buffer_ids;
    outgoing;
    topology;
    vcs;
  }

let wormhole topo ~vcs =
  if vcs < 1 then invalid_arg "Net.wormhole: vcs must be >= 1";
  let num_nodes = Topology.num_nodes topo in
  (* a grid's dimensions, or an irregular topology's ports *)
  let dims =
    List.init num_nodes (Topology.neighbors topo)
    |> List.fold_left (List.fold_left (fun m (dim, _, _) -> max m (dim + 1))) 0
  in
  let fill bld ~channel_ids ~custom_index:_ ~node_buffer_ids:_ ~outgoing =
    for src = 0 to num_nodes - 1 do
      let add_channel (dim, dir, dst) =
        for vc = 0 to vcs - 1 do
          let id = push bld (Buf.Channel { src; dst; dim; dir; vc }) in
          channel_ids.(channel_slot ~dims ~vcs ~src ~dim ~dir ~vc) <- id;
          outgoing.(src) <- id :: outgoing.(src)
        done
      in
      List.iter add_channel (Topology.neighbors topo src)
    done
  in
  base
    ~name:(Printf.sprintf "wormhole(%s,%dvc)" (Topology.name topo) vcs)
    ~switching:Wormhole ~num_nodes ~topology:(Some topo) ~vcs ~dims fill

let packet_buffered switching tag topo ~classes =
  if classes < 1 then invalid_arg "Net: classes must be >= 1";
  let num_nodes = Topology.num_nodes topo in
  let fill bld ~channel_ids:_ ~custom_index:_ ~node_buffer_ids ~outgoing:_ =
    for node = 0 to num_nodes - 1 do
      for cls = 0 to classes - 1 do
        node_buffer_ids.((node * classes) + cls) <- push bld (Buf.Node_buffer { node; cls })
      done
    done
  in
  base
    ~name:(Printf.sprintf "%s(%s,%dbuf)" tag (Topology.name topo) classes)
    ~switching ~num_nodes ~topology:(Some topo) ~vcs:classes fill

let store_and_forward topo ~classes =
  packet_buffered Store_and_forward "saf" topo ~classes

let virtual_cut_through topo ~classes =
  packet_buffered Virtual_cut_through "vct" topo ~classes

let custom ~name ~switching ~num_nodes ~channels =
  if num_nodes < 1 then invalid_arg "Net.custom: num_nodes must be >= 1";
  let max_vc =
    List.fold_left (fun acc (_, _, vc) -> max acc (vc + 1)) 1 channels
  in
  let fill bld ~channel_ids:_ ~custom_index ~node_buffer_ids ~outgoing =
    List.iteri
      (fun i (src, dst, vc) ->
        if src < 0 || src >= num_nodes || dst < 0 || dst >= num_nodes then
          invalid_arg "Net.custom: channel endpoint out of range";
        if vc < 0 then invalid_arg "Net.custom: negative vc";
        match switching with
        | Wormhole ->
          let id = push bld (Buf.Channel { src; dst; dim = i; dir = Topology.Plus; vc }) in
          Hashtbl.replace custom_index (src, dst, vc) id;
          outgoing.(src) <- id :: outgoing.(src)
        | Store_and_forward | Virtual_cut_through ->
          (* buffer classes stand in for channels on packet-buffered custom
             networks: one buffer at [dst] per incoming channel *)
          node_buffer_ids.((dst * max_vc) + vc) <-
            push bld (Buf.Node_buffer { node = dst; cls = vc }))
      channels
  in
  base ~name ~switching ~num_nodes ~topology:None ~vcs:max_vc fill
