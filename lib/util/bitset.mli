(** Small integer sets represented as native-int bitmasks.

    Used pervasively for "set of dimensions still to be corrected" in the
    routing algorithms and the adaptiveness dynamic programs.  Elements must
    lie in [0, 61]. *)

type t = int

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val cardinal : t -> int

val min_elt : t -> int
(** Smallest member. Raises [Not_found] on the empty set. *)

val max_elt : t -> int
(** Largest member. Raises [Not_found] on the empty set. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val iter : (int -> unit) -> t -> unit
val elements : t -> int list
val of_list : int list -> t
val full : int -> t
(** [full n] is the set [{0, ..., n-1}]. *)

val subsets : t -> t list
(** All subsets, the empty set first.  Cardinal must be at most 16. *)

val pp : Format.formatter -> t -> unit

(** Rows that pick their representation per row by density: a sorted int
    array while small, promoted to dense 62-bit words once the sorted form
    would occupy at least as many words as the bitmap.  This is what lets
    the BWG builder's per-destination reachability closures scale to
    10^4-10^5-buffer networks: sparse closures (full mesh, dragonfly,
    fat-tree traffic) stay O(cardinal) instead of O(V) bits per row, while
    on dense move graphs unioning one SCC's closure row into another's
    stays one word-parallel [lor] sweep.

    Iteration order is ascending in both representations, so consumers are
    bit-for-bit independent of which representation a row happens to be
    in. *)
module Hybrid : sig
  (** Many same-length rows, the closure-pass container. *)
  module Rows : sig
    type t

    val create : ?force_dense:bool -> rows:int -> len:int -> unit -> t
    (** All rows empty.  [force_dense] starts every row dense — the escape
        hatch the equivalence tests and the memory benches compare
        against. *)

    val rows : t -> int
    val length : t -> int
    val is_forced_dense : t -> bool

    val add : t -> int -> int -> unit
    (** [add t r i] inserts element [i] into row [r]. *)

    val mem : t -> int -> int -> bool

    val union_rows : t -> into:int -> src:int -> unit
    (** [into := into ∪ src]; promotes [into] when the union crosses the
        density threshold. *)

    val iter_row : (int -> unit) -> t -> int -> unit
    (** Elements of one row, ascending. *)

    val fold_row : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
    val cardinal_row : t -> int -> int

    val is_dense_row : t -> int -> bool
    val dense_rows : t -> int
    (** How many rows have promoted to the dense representation. *)

    val storage_words : t -> int
    (** Total words currently backing all rows — the number the scale
        benches compare between hybrid and forced-dense builds. *)
  end
end
