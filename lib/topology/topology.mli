(** Orthogonal interconnection-network topologies.

    Covers every topology the paper touches: n-dimensional meshes
    (Theorem 4), hypercubes (Theorems 5-6, Figure 3) and k-ary n-cubes /
    tori / rings (the "any network topology" claim of the conclusion).
    Nodes are dense integers obtained by mixed-radix encoding of their
    coordinates, so they can index arrays directly. *)

type t

type direction = Plus | Minus

val mesh : int array -> t
(** [mesh radices] is an n-dimensional mesh; [radices.(i)] is the number of
    nodes along dimension [i] (each must be >= 2 except that a
    one-dimensional [mesh [|k|]] is a line).  Raises [Invalid_argument] on
    an empty array or radices < 1. *)

val hypercube : int -> t
(** [hypercube n] is the binary n-cube (a mesh of [n] radix-2 dimensions). *)

val torus : int array -> t
(** Like {!mesh} but with wrap-around links.  Radices must be >= 3 so that
    the two directed wrap channels are distinct physical links. *)

val ring : int -> t
(** [ring k] is [torus [| k |]]. *)

val fullmesh : int -> t
(** [fullmesh n] connects every ordered pair of the [n] nodes directly
    (port [p] of node [u] reaches the [p]-th other node in ascending
    order).  The HOTI'25 full-mesh setting: one hop suffices, so minimal
    routing is trivially deadlock-free even with one virtual channel. *)

val dragonfly : a:int -> h:int -> ?g:int -> unit -> t
(** Fully subscribed palmtree dragonfly: [a] routers per group, [h] global
    links per router, [a*h + 1] groups with exactly one global link
    between every pair.  [g], when given, must equal [a*h + 1] (it exists
    so shorthand instances can state their size explicitly).  Router
    [(grp, r)] is node [grp*a + r]; local ports come first, then global
    ports.  Raises [Invalid_argument] on out-of-range parameters. *)

val kary_ntree : k:int -> n:int -> t
(** The k-ary n-tree fat tree: [k^n] hosts (nodes [0..k^n-1]) under [n]
    levels of [k^(n-1)] switches each, roots at level 0.  Every node —
    hosts and switches — injects and delivers, matching the checker's
    all-pairs state seeding. *)

val name : t -> string

val is_grid : t -> bool
(** Whether the topology is an orthogonal grid (mesh/torus/hypercube
    family).  Coordinate accessors ({!coordinate}, {!dimensions},
    {!radix}, {!minimal_moves}, {!neighbor}, ...) raise
    [Invalid_argument] on irregular (fullmesh/dragonfly/fat-tree)
    topologies; {!neighbors}, {!distance}, {!channels} and
    {!to_digraph} work on every topology. *)

val fullmesh_params : t -> int option
(** Node count when the topology is a full mesh. *)

val dragonfly_params : t -> (int * int * int) option
(** [(a, h, g)] when the topology is a dragonfly. *)

val kntree_params : t -> (int * int) option
(** [(k, n)] when the topology is a k-ary n-tree. *)

val is_torus : t -> bool
val num_nodes : t -> int
val dimensions : t -> int
val radix : t -> int -> int

val coord_of_node : t -> int -> int array
(** Fresh array of coordinates, lowest dimension first. *)

val node_of_coord : t -> int array -> int
val coordinate : t -> int -> int -> int
(** [coordinate t node dim] without allocating the full vector. *)

val neighbor : t -> int -> int -> direction -> int option
(** [neighbor t node dim dir] is the adjacent node in that direction, or
    [None] at a mesh boundary. *)

val neighbors : t -> int -> (int * direction * int) list
(** All [(dim, dir, node)] triples adjacent to a node. *)

val distance : t -> int -> int -> int
(** Minimal hop count (wrap-aware on tori). *)

val minimal_moves : t -> src:int -> dst:int -> (int * direction) list
(** Directions that strictly decrease the distance to [dst].  On a torus a
    dimension whose two ways around are equidistant contributes both
    directions. *)

val channels : t -> (int * int) list
(** Every directed physical channel [(u, v)]. *)

val to_digraph : t -> Dfr_graph.Digraph.t
(** The directed physical-channel graph over nodes. *)

val of_string : string -> (t, string) result
(** Parse the textual shorthand shared by the [dfcheck] CLI and the spec
    language's [topology] clause: [hypercube:N] (N in 1..10), [mesh:AxBx...]
    (radices >= 1), [torus:AxBx...] (radices >= 3), [ring:N] (N >= 3),
    [fullmesh:N] (N >= 2), [dragonfly:AxH] or [dragonfly:AxHxG] (G = A*H+1)
    and [kntree:KxN] / [fattree:KxN] (K >= 2, N in 1..6).  Errors name the
    offending token and the valid range. *)

val grammar_summary : string
(** One-line reminder of the accepted forms, for error messages. *)

val pp_node : t -> Format.formatter -> int -> unit
(** Prints the coordinate vector, e.g. ["(2,0,1)"]. *)

val pp_direction : Format.formatter -> direction -> unit
