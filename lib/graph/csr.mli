(** Frozen digraphs in compressed sparse row form.

    The mutable {!Digraph} is the construction-time representation; once a
    graph stops changing, {!Digraph.freeze} packs it into two contiguous
    [int array]s — [offsets] (length [n + 1]) and [targets] (length [m]) —
    so every traversal reads successors as a zero-allocation array slice
    instead of reversing a cons list.  Rows are sorted ascending and
    duplicate-free, which makes [mem_edge] a binary search and [equal] a
    pair of array compares. *)

type t

val make : n:int -> offsets:int array -> targets:int array -> t
(** [make ~n ~offsets ~targets] validates the shape: [offsets] has length
    [n + 1], starts at [0], ends at [Array.length targets], is monotone,
    and every row is strictly ascending with in-range targets.  Raises
    [Invalid_argument] otherwise. *)

val of_edges : int -> (int * int) list -> t
(** Duplicate edges are collapsed. *)

val num_vertices : t -> int
val num_edges : t -> int

val mem_edge : t -> int -> int -> bool
(** Binary search within the source row: O(log deg). *)

val succ : t -> int -> int list
(** Successors ascending.  Allocates; traversals should prefer
    {!iter_succ} / {!fold_succ}. *)

val row : t -> int -> int * int
(** [row g u] is the half-open [(start, stop)] range of [u]'s row in the
    flat target array; read entries with {!target}.  The cheapest way for
    a tight loop to keep a cursor into a row. *)

val target : t -> int -> int
(** Entry of the flat target array at a position obtained from {!row}. *)

val iter_succ : (int -> unit) -> t -> int -> unit
val fold_succ : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a

val iter_edges : (int -> int -> unit) -> t -> unit
val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
val edges : t -> (int * int) list

val transpose : t -> t
(** Also in CSR form (counting sort, O(V + E)). *)

val equal : t -> t -> bool
(** Same vertex count and edge set — O(V + E) array comparison thanks to
    the canonical row order. *)
