open Dfr_network

type wait_discipline = Specific_wait | Any_wait

type t = {
  name : string;
  wait : wait_discipline;
  route : Net.t -> Buf.t -> dest:int -> int list;
  waits : Net.t -> Buf.t -> dest:int -> int list;
  reduced_waits : (Net.t -> Buf.t -> dest:int -> int list) option;
}

let make ~name ~wait ~route ?waits ?reduced_waits () =
  let waits = Option.value waits ~default:route in
  { name; wait; route; waits; reduced_waits }

let wait_everywhere t =
  {
    t with
    name = t.name ^ "+wait-everywhere";
    wait = Any_wait;
    waits = t.route;
    reduced_waits = None;
  }

let with_waits t ?name waits =
  let name = Option.value name ~default:(t.name ^ "+bwg'") in
  { t with name; waits; reduced_waits = None }

let with_relation t ?name route =
  let name = Option.value name ~default:(t.name ^ "+repair") in
  { t with name; route; waits = route; reduced_waits = None }

(* The contract as a predicate that allocates nothing: [state_ok] holds
   exactly when [state_problems] finds no problem, so the BFS builds the
   messages only for a state that fails. *)
let rec mem_int (x : int) = function [] -> false | y :: rest -> y = x || mem_int x rest
let rec subset_int a b = match a with [] -> true | x :: rest -> mem_int x b && subset_int rest b

let rec distinct_int = function
  | [] -> true
  | x :: rest -> (not (mem_int x rest)) && distinct_int rest

let rec outputs_ok net ~dest ~head = function
  | [] -> true
  | id :: rest ->
    let out = Net.buffer net id in
    (match Buf.kind out with
    | Buf.Injection _ -> false
    | Buf.Delivery n -> n = dest
    | Buf.Channel { src; _ } -> src = head
    | Buf.Node_buffer _ -> true)
    && outputs_ok net ~dest ~head rest

let state_ok net b ~dest ~outputs ~waits ~reduced_waits =
  distinct_int outputs
  && outputs_ok net ~dest ~head:(Buf.head_node b) outputs
  && subset_int waits outputs
  && match reduced_waits with None -> true | Some rw -> subset_int rw waits

let rec has_dup = function
  | [] -> false
  | x :: rest -> List.mem x rest || has_dup rest

let state_problems net b ~dest ~outputs ~waits ~reduced_waits =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let head = Buf.head_node b in
  if has_dup outputs then
    report "duplicate outputs for %s dest %d" (Net.describe_buffer net (Buf.id b)) dest;
  let check_out id =
    let out = Net.buffer net id in
    if Buf.is_injection out then
      report "output %s is an injection buffer" (Net.describe_buffer net id);
    if Buf.is_delivery out && Buf.head_node out <> dest then
      report "output %s is a foreign delivery buffer" (Net.describe_buffer net id);
    match Buf.kind out with
    | Buf.Channel { src; _ } when src <> head ->
      report "output %s not adjacent to head node %d" (Net.describe_buffer net id) head
    | _ -> ()
  in
  List.iter check_out outputs;
  List.iter
    (fun w ->
      if not (List.mem w outputs) then
        report "wait buffer %s not in outputs (%s dest %d)" (Net.describe_buffer net w)
          (Net.describe_buffer net (Buf.id b))
          dest)
    waits;
  Option.iter
    (List.iter (fun w ->
         if not (List.mem w waits) then
           report "reduced wait %s not in waits (%s dest %d)" (Net.describe_buffer net w)
             (Net.describe_buffer net (Buf.id b))
             dest))
    reduced_waits;
  List.rev !problems

(* The serial all-pairs reference: every (buffer, destination) state in
   buffer-major order, reachable or not.  The checker validates only
   reachable states, inside [State_space.build]'s BFS; this sweep is
   what the tests compare that against. *)
let validate t net =
  let problems = ref [] in
  Array.iter
    (fun b ->
      for dest = 0 to Net.num_nodes net - 1 do
        if (not (Buf.is_delivery b)) && Buf.head_node b <> dest then begin
          let outputs = t.route net b ~dest in
          let waits = t.waits net b ~dest in
          let reduced_waits = Option.map (fun rw -> rw net b ~dest) t.reduced_waits in
          problems :=
            List.rev_append
              (state_problems net b ~dest ~outputs ~waits ~reduced_waits)
              !problems
        end
      done)
    (Net.buffers net);
  match List.rev !problems with [] -> Ok () | ps -> Error (String.concat "; " ps)
