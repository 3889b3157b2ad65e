(** Mutable directed graphs over integer vertices [0, n).

    This is the graph substrate for the whole toolkit (the sealed build
    environment has no [ocamlgraph]).  Vertices are dense integers so the
    buffer-waiting-graph engine can use buffer identifiers directly. *)

type t

val create : int -> t
(** [create n] is a graph with vertices [0 .. n-1] and no edges. *)

val num_vertices : t -> int

val num_edges : t -> int
(** Number of distinct edges. *)

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts edge [u -> v]; duplicate insertions are
    ignored (an O(out-degree) scan).  Self loops are allowed.  Raises
    [Invalid_argument] when a vertex is out of range. *)

val unsafe_add_edge : t -> int -> int -> unit
(** [add_edge] without the duplicate scan: the caller guarantees the edge
    is not already present (e.g. it deduplicates through its own side
    table).  Inserting a duplicate breaks the no-duplicate invariant that
    [num_edges], [equal] and [freeze] rely on. *)

val remove_edge : t -> int -> int -> unit
(** Removes the edge if present; no-op otherwise. *)

val mem_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors of a vertex, in insertion order. *)

val iter_succ : (int -> unit) -> t -> int -> unit
(** [succ] without building the list: same order, no allocation. *)

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int) list

val of_edges : int -> (int * int) list -> t
val copy : t -> t
val transpose : t -> t

val induced : t -> keep:(int -> bool) -> t
(** [induced g ~keep] is a same-vertex-set graph retaining only edges whose
    endpoints both satisfy [keep]. *)

val freeze : t -> Csr.t
(** Pack into the frozen CSR form (O(V + E log deg)); the digraph stays
    usable and later mutations do not affect the frozen copy.  All the
    traversal algorithms run on the CSR form — freeze once per analysis,
    not per query. *)

val equal : t -> t -> bool
(** Same vertex count and same edge set (order-insensitive);
    O(E log deg) via canonical sorted adjacency rows. *)
