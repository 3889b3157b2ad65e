open Dfr_topology

type kind =
  | Injection of int
  | Delivery of int
  | Channel of {
      src : int;
      dst : int;
      dim : int;
      dir : Topology.direction;
      vc : int;
    }
  | Node_buffer of { node : int; cls : int }

type t = { id : int; kind : kind }

let id b = b.id
let kind b = b.kind

let head_node b =
  match b.kind with
  | Injection n | Delivery n -> n
  | Channel { dst; _ } -> dst
  | Node_buffer { node; _ } -> node

let source_node b =
  match b.kind with
  | Injection n | Delivery n -> n
  | Channel { src; _ } -> src
  | Node_buffer { node; _ } -> node

let is_injection b = match b.kind with Injection _ -> true | _ -> false
let is_delivery b = match b.kind with Delivery _ -> true | _ -> false

let is_transit b =
  match b.kind with
  | Channel _ | Node_buffer _ -> true
  | Injection _ | Delivery _ -> false

let vc b = match b.kind with Channel { vc; _ } -> Some vc | _ -> None
let cls b = match b.kind with Node_buffer { cls; _ } -> Some cls | _ -> None

let describe topo b =
  let node_str n = Format.asprintf "%a" (Topology.pp_node topo) n in
  match b.kind with
  | Injection n -> Printf.sprintf "inj@%s" (node_str n)
  | Delivery n -> Printf.sprintf "del@%s" (node_str n)
  | Channel { src; dim; dir; vc; _ } ->
    Printf.sprintf "B%d%s^%d@%s" (vc + 1)
      (match dir with Topology.Plus -> "+" | Topology.Minus -> "-")
      dim (node_str src)
  | Node_buffer { node; cls } ->
    Printf.sprintf "%c@%s" (Char.chr (Char.code 'A' + cls)) (node_str node)
