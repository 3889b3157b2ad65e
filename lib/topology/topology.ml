type direction = Plus | Minus

(* Which irregular generator produced the topology, with the parameters
   the routing algorithms need to recover the wiring arithmetic. *)
type flavor =
  | Fullmesh
  | Dragonfly of { a : int; h : int; g : int }
  | Kntree of { k : int; levels : int; hosts : int }

type grid_data = {
  radices : int array;
  wrap : bool;
  strides : int array; (* strides.(i) = product of radices below i *)
}

type structure =
  | Grid of grid_data
  | Irregular of { flavor : flavor; adj : (int * direction * int) list array }
      (* adj.(u) lists (port, Plus, v) in fixed port order; ports play the
         role grid dimensions play in channel addressing *)

type t = { name : string; num_nodes : int; structure : structure }

let grid t fn =
  match t.structure with
  | Grid g -> g
  | Irregular _ ->
    invalid_arg (Printf.sprintf "Topology.%s: grid topology required (got %s)" fn t.name)

let make ~name ~wrap radices =
  if Array.length radices = 0 then invalid_arg "Topology: no dimensions";
  Array.iter
    (fun k ->
      if k < 1 then invalid_arg "Topology: radix must be >= 1";
      if wrap && k < 3 then invalid_arg "Topology: torus radix must be >= 3")
    radices;
  let n = Array.length radices in
  let strides = Array.make n 1 in
  for i = 1 to n - 1 do
    strides.(i) <- strides.(i - 1) * radices.(i - 1)
  done;
  let num_nodes = strides.(n - 1) * radices.(n - 1) in
  {
    name;
    num_nodes;
    structure = Grid { radices = Array.copy radices; wrap; strides };
  }

let mesh radices =
  let dims = String.concat "x" (Array.to_list (Array.map string_of_int radices)) in
  make ~name:(Printf.sprintf "mesh-%s" dims) ~wrap:false radices

let hypercube n =
  if n < 1 then invalid_arg "Topology.hypercube: dimension must be >= 1";
  let t = make ~name:"" ~wrap:false (Array.make n 2) in
  { t with name = Printf.sprintf "hypercube-%d" n }

let torus radices =
  let dims = String.concat "x" (Array.to_list (Array.map string_of_int radices)) in
  make ~name:(Printf.sprintf "torus-%s" dims) ~wrap:true radices

let ring k =
  let t = torus [| k |] in
  { t with name = Printf.sprintf "ring-%d" k }

(* ---------------- irregular generators ---------------- *)

let irregular ~name ~flavor adj =
  { name; num_nodes = Array.length adj; structure = Irregular { flavor; adj } }

let fullmesh n =
  if n < 2 then invalid_arg "Topology.fullmesh: need at least 2 nodes";
  let adj =
    Array.init n (fun u ->
        (* port p of node u reaches the p-th other node in ascending order *)
        List.init (n - 1) (fun p ->
            let v = if p < u then p else p + 1 in
            (p, Plus, v)))
  in
  irregular ~name:(Printf.sprintf "fullmesh-%d" n) ~flavor:Fullmesh adj

(* Palmtree dragonfly: [a] routers per group, [h] global links per router,
   [g = a*h + 1] groups, one global link between every pair of groups.
   Router (grp, r) is node grp*a + r.  Ports: a-1 local ports (port j
   reaches router (r + j + 1) mod a of the same group), then h global
   ports (port a-1+l carries the group's global link number r*h + l).
   Link L of group x lands in group (x + L + 1) mod g, whose answering
   link is g - 2 - L — the palmtree assignment, which wires each pair of
   groups exactly once. *)
let dragonfly ~a ~h ?g () =
  if a < 2 then invalid_arg "Topology.dragonfly: need >= 2 routers per group";
  if h < 1 then invalid_arg "Topology.dragonfly: need >= 1 global link per router";
  let full = (a * h) + 1 in
  let g = match g with None -> full | Some g -> g in
  if g <> full then
    invalid_arg
      (Printf.sprintf
         "Topology.dragonfly: group count must be a*h + 1 = %d (fully \
          subscribed palmtree), got %d"
         full g);
  let n = g * a in
  let adj =
    Array.init n (fun u ->
        let grp = u / a and r = u mod a in
        let local =
          List.init (a - 1) (fun j -> (j, Plus, (grp * a) + ((r + j + 1) mod a)))
        in
        let global =
          List.init h (fun l ->
              let link = (r * h) + l in
              let g2 = (grp + link + 1) mod g in
              let back = g - 2 - link in
              (a - 1 + l, Plus, (g2 * a) + (back / h)))
        in
        local @ global)
  in
  irregular
    ~name:(Printf.sprintf "dragonfly-%dx%dx%d" a h g)
    ~flavor:(Dragonfly { a; h; g })
    adj

(* k-ary n-tree: k^n hosts (ids 0..k^n-1) under n levels of k^(n-1)
   switches; level 0 holds the roots, level n-1 the leaf switches.
   Switch (l, w) is node k^n + l*k^(n-1) + w, where w encodes the n-1
   base-k digits shared with the hosts below it.  A level-l switch and a
   level-(l+1) switch are wired iff their digit vectors agree everywhere
   except digit l; host p hangs off leaf switch (n-1, p mod k^(n-1)).
   Hence switch (l, w) is an ancestor of host p iff w = p (mod k^l).
   Ports: k down ports first (port m goes to the child with digit l = m,
   or to host w + m*k^(n-1) at the leaves), then k up ports (port k+m to
   the parent with digit l-1 = m; roots have none). *)
let kary_ntree ~k ~n =
  if k < 2 then invalid_arg "Topology.kary_ntree: arity must be >= 2";
  if n < 1 then invalid_arg "Topology.kary_ntree: need >= 1 level";
  let hosts = int_of_float (float_of_int k ** float_of_int n +. 0.5) in
  let per_level = hosts / k in
  let switch l w = hosts + (l * per_level) + w in
  let pow_k = Array.make n 1 in
  for i = 1 to n - 1 do
    pow_k.(i) <- pow_k.(i - 1) * k
  done;
  let num = hosts + (n * per_level) in
  let adj =
    Array.init num (fun u ->
        if u < hosts then [ (0, Plus, switch (n - 1) (u mod per_level)) ]
        else begin
          let s = u - hosts in
          let l = s / per_level and w = s mod per_level in
          let down =
            List.init k (fun m ->
                if l = n - 1 then (m, Plus, w + (m * per_level))
                else
                  let d = pow_k.(l) in
                  let w' = (w / (d * k) * (d * k)) + (m * d) + (w mod d) in
                  (m, Plus, switch (l + 1) w'))
          in
          let up =
            if l = 0 then []
            else
              List.init k (fun m ->
                  let d = pow_k.(l - 1) in
                  let w' = (w / (d * k) * (d * k)) + (m * d) + (w mod d) in
                  (k + m, Plus, switch (l - 1) w'))
          in
          down @ up
        end)
  in
  irregular
    ~name:(Printf.sprintf "kntree-%dx%d" k n)
    ~flavor:(Kntree { k; levels = n; hosts })
    adj

let name t = t.name
let num_nodes t = t.num_nodes

let is_grid t =
  match t.structure with Grid _ -> true | Irregular _ -> false

let is_torus t =
  match t.structure with Grid g -> g.wrap | Irregular _ -> false

let fullmesh_params t =
  match t.structure with
  | Irregular { flavor = Fullmesh; _ } -> Some t.num_nodes
  | _ -> None

let dragonfly_params t =
  match t.structure with
  | Irregular { flavor = Dragonfly { a; h; g }; _ } -> Some (a, h, g)
  | _ -> None

let kntree_params t =
  match t.structure with
  | Irregular { flavor = Kntree { k; levels; _ }; _ } -> Some (k, levels)
  | _ -> None

let dimensions t = Array.length (grid t "dimensions").radices

let radix t i =
  let g = grid t "radix" in
  if i < 0 || i >= Array.length g.radices then invalid_arg "Topology.radix";
  g.radices.(i)

let coordinate t node dim =
  let g = grid t "coordinate" in
  if node < 0 || node >= t.num_nodes then invalid_arg "Topology: node out of range";
  node / g.strides.(dim) mod g.radices.(dim)

let coord_of_node t node =
  Array.init (dimensions t) (fun i -> coordinate t node i)

let node_of_coord t coord =
  let g = grid t "node_of_coord" in
  if Array.length coord <> Array.length g.radices then
    invalid_arg "Topology.node_of_coord";
  let acc = ref 0 in
  for i = 0 to Array.length g.radices - 1 do
    let c = coord.(i) in
    if c < 0 || c >= g.radices.(i) then invalid_arg "Topology.node_of_coord";
    acc := !acc + (c * g.strides.(i))
  done;
  !acc

let neighbor t node dim dir =
  let g = grid t "neighbor" in
  let c = coordinate t node dim in
  let k = g.radices.(dim) in
  let c' =
    match dir with
    | Plus -> if c + 1 < k then Some (c + 1) else if g.wrap then Some 0 else None
    | Minus -> if c > 0 then Some (c - 1) else if g.wrap then Some (k - 1) else None
  in
  Option.map (fun c' -> node + ((c' - c) * g.strides.(dim))) c'

let neighbors t node =
  match t.structure with
  | Irregular { adj; _ } ->
    if node < 0 || node >= t.num_nodes then
      invalid_arg "Topology: node out of range";
    adj.(node)
  | Grid _ ->
    let acc = ref [] in
    for dim = dimensions t - 1 downto 0 do
      let try_dir dir =
        match neighbor t node dim dir with
        | Some v -> acc := (dim, dir, v) :: !acc
        | None -> ()
      in
      try_dir Minus;
      try_dir Plus
    done;
    !acc

let dim_distance g dim a b =
  let d = abs (a - b) in
  if g.wrap then min d (g.radices.(dim) - d) else d

let distance t u v =
  match t.structure with
  | Grid g ->
    let acc = ref 0 in
    for dim = 0 to Array.length g.radices - 1 do
      acc := !acc + dim_distance g dim (coordinate t u dim) (coordinate t v dim)
    done;
    !acc
  | Irregular { adj; _ } ->
    (* irregular wirings have no coordinate arithmetic; BFS over ports *)
    if u < 0 || u >= t.num_nodes || v < 0 || v >= t.num_nodes then
      invalid_arg "Topology: node out of range";
    if u = v then 0
    else begin
      let dist = Array.make t.num_nodes (-1) in
      dist.(u) <- 0;
      let q = Queue.create () in
      Queue.add u q;
      let found = ref (-1) in
      while !found < 0 && not (Queue.is_empty q) do
        let x = Queue.pop q in
        List.iter
          (fun (_, _, y) ->
            if dist.(y) < 0 then begin
              dist.(y) <- dist.(x) + 1;
              if y = v then found := dist.(y);
              Queue.add y q
            end)
          adj.(x)
      done;
      if !found < 0 then invalid_arg "Topology.distance: disconnected" else !found
    end

let minimal_moves t ~src ~dst =
  let g = grid t "minimal_moves" in
  let acc = ref [] in
  for dim = Array.length g.radices - 1 downto 0 do
    let cs = coordinate t src dim and cd = coordinate t dst dim in
    if cs <> cd then
      if not g.wrap then acc := (dim, if cs < cd then Plus else Minus) :: !acc
      else begin
        let k = g.radices.(dim) in
        let fwd = (cd - cs + k) mod k in
        let bwd = k - fwd in
        if fwd < bwd then acc := (dim, Plus) :: !acc
        else if bwd < fwd then acc := (dim, Minus) :: !acc
        else acc := (dim, Plus) :: (dim, Minus) :: !acc
      end
  done;
  !acc

let channels t =
  let acc = ref [] in
  for u = num_nodes t - 1 downto 0 do
    List.iter (fun (_, _, v) -> acc := (u, v) :: !acc) (neighbors t u)
  done;
  !acc

let to_digraph t =
  let g = Dfr_graph.Digraph.create (num_nodes t) in
  List.iter (fun (u, v) -> Dfr_graph.Digraph.add_edge g u v) (channels t);
  g

let pp_node t fmt node =
  match t.structure with
  | Grid _ ->
    let coord = coord_of_node t node in
    Format.fprintf fmt "(%s)"
      (String.concat "," (Array.to_list (Array.map string_of_int coord)))
  | Irregular _ -> Format.fprintf fmt "n%d" node

let pp_direction fmt = function
  | Plus -> Format.pp_print_char fmt '+'
  | Minus -> Format.pp_print_char fmt '-'

(* ------------------------------------------------------------------ *)
(* the textual shorthand grammar, shared by the dfcheck CLI and the
   spec language's `topology' clause *)

let grammar_summary =
  "hypercube:N, mesh:AxBx..., torus:AxBx..., ring:N, fullmesh:N, \
   dragonfly:AxH[xG] or kntree:KxN"

let of_string s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let int_tok kind tok ~what ~lo ~hi =
    let range =
      if hi = max_int then Printf.sprintf ">= %d" lo
      else Printf.sprintf "in %d..%d" lo hi
    in
    match int_of_string_opt tok with
    | None -> err "%s: %S is not an integer (expected %s %s)" kind tok what range
    | Some n when n < lo || n > hi ->
      err "%s: %s %d out of range (%s expected)" kind what n range
    | Some n -> Ok n
  in
  let dims kind tok ~min_radix build =
    let parts = String.split_on_char 'x' tok in
    if parts = [ "" ] then
      err "%s: empty dimension list; expected e.g. %s:4x4" kind kind
    else
      let rec collect i acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | p :: rest -> (
          match int_of_string_opt p with
          | None ->
            err "%s: dimension %d token %S is not an integer (expected e.g. %s:4x4)"
              kind i p kind
          | Some r when r < min_radix ->
            err "%s: dimension %d has radix %d (from %S); %s radices must be >= %d"
              kind i r p kind min_radix
          | Some r -> collect (i + 1) (r :: acc) rest)
      in
      match collect 1 [] parts with
      | Error _ as e -> e
      | Ok radices -> Ok (build radices)
  in
  let fields kind tok ~expect =
    let parts = String.split_on_char 'x' tok in
    let num_fields = List.length parts in
    if not (List.mem num_fields expect) then
      err "%s: expected %s 'x'-separated fields, got %d (from %S)" kind
        (String.concat " or " (List.map string_of_int expect))
        num_fields tok
    else
      let rec collect i acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match int_of_string_opt p with
          | None -> err "%s: field %d token %S is not an integer" kind i p
          | Some v -> collect (i + 1) (v :: acc) rest)
      in
      collect 1 [] parts
  in
  let guarded f = try f () with Invalid_argument m -> Error m in
  match String.index_opt s ':' with
  | None -> err "missing ':' in topology %S; expected %s" s grammar_summary
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "hypercube" -> (
      match int_tok kind rest ~what:"dimension" ~lo:1 ~hi:10 with
      | Ok n -> Ok (hypercube n)
      | Error _ as e -> e)
    | "ring" -> (
      match int_tok kind rest ~what:"size" ~lo:3 ~hi:max_int with
      | Ok k -> Ok (ring k)
      | Error _ as e -> e)
    | "mesh" -> dims kind rest ~min_radix:1 mesh
    | "torus" -> dims kind rest ~min_radix:3 torus
    | "fullmesh" -> (
      match int_tok kind rest ~what:"size" ~lo:2 ~hi:max_int with
      | Ok n -> Ok (fullmesh n)
      | Error _ as e -> e)
    | "dragonfly" -> (
      match fields kind rest ~expect:[ 2; 3 ] with
      | Error _ as e -> e
      | Ok [ a; h ] -> guarded (fun () -> Ok (dragonfly ~a ~h ()))
      | Ok [ a; h; g ] -> guarded (fun () -> Ok (dragonfly ~a ~h ~g ()))
      | Ok _ -> assert false)
    | "kntree" | "fattree" -> (
      match fields kind rest ~expect:[ 2 ] with
      | Error _ as e -> e
      | Ok [ k; n ] ->
        if n > 6 then err "%s: %d levels is out of range 1..6" kind n
        else guarded (fun () -> Ok (kary_ntree ~k ~n))
      | Ok _ -> assert false)
    | _ -> err "unknown topology kind %S; expected %s" kind grammar_summary)
