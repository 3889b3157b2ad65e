(* Facade: parse + validate + elaborate a .dfr specification, with
   compiler-style error reporting. *)

open Dfr_network
open Dfr_routing
module Obs = Dfr_obs.Obs

type error = { pos : Ast.pos; msg : string }

type t = {
  name : string;
  net : Net.t;
  algo : Algo.t;
  elaborated : Elaborate.t;
}

let error_to_string ?file { pos; msg } =
  match file with
  | Some f -> Printf.sprintf "%s:%d:%d: %s" f pos.Ast.line pos.Ast.col msg
  | None -> Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.col msg

let ( let* ) r f = match r with Ok v -> f v | Error (pos, msg) -> Error { pos; msg }

let compile_string src =
  let* ast = Obs.span "spec.parse" (fun () -> Parser.parse_string src) in
  let* resolved = Obs.span "spec.validate" (fun () -> Validate.check ast) in
  let* elaborated = Obs.span "spec.elaborate" (fun () -> Elaborate.check resolved) in
  Ok
    {
      name = resolved.Validate.name;
      net = elaborated.Elaborate.net;
      algo = elaborated.Elaborate.algo;
      elaborated;
    }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_file path =
  match read_file path with
  | exception Sys_error msg -> Error { pos = { Ast.line = 1; col = 1 }; msg }
  | src -> compile_string src

(* The spec's network as Graphviz DOT: one node per processing node, one
   edge per declared channel, labeled with the (user-controlled) channel
   name — everything funneled through {!Dfr_graph.Dot.escape}. *)
let to_dot t =
  let esc = Dfr_graph.Dot.escape in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" (esc t.name));
  for n = 0 to Net.num_nodes t.net - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%d\"];\n" n n)
  done;
  List.iter
    (fun (c : Elaborate.channel_info) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" c.Elaborate.ch_src c.Elaborate.ch_dst
           (esc c.Elaborate.ch_name)))
    t.elaborated.Elaborate.channel_infos;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
