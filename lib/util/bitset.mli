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
val cardinal : t -> int

val min_elt : t -> int
(** Smallest member. Raises [Not_found] on the empty set. *)

val max_elt : t -> int
(** Largest member. Raises [Not_found] on the empty set. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val elements : t -> int list
val of_list : int list -> t
val full : int -> t
(** [full n] is the set [{0, ..., n-1}]. *)

val subsets : t -> t list
(** All subsets, the empty set first.  Cardinal must be at most 16. *)

(** Rows over [[0, len)] appended to one flat array, each stored by its
    density: a sorted run of at most [⌈len/62⌉] elements, or [⌈len/62⌉]
    words of 62-bit bitmap once it holds more.  This is what lets the
    BWG builder's per-destination reachability closures scale to
    10{^4}-10{^5}-buffer networks: sparse closures (full mesh, dragonfly,
    fat-tree traffic) stay O(cardinal) instead of O(len) bits per row,
    while on dense move graphs unioning one row into another stays one
    word-parallel [lor] sweep.

    A row is built in one open accumulator, from elements ({!add}) and
    finished rows ({!union}), and never changes once {!finish}ed.  No
    row allocates: a finished row is a slice of the arena's array, and
    {!reset} empties the arena for reuse, keeping its storage.

    Iteration order is ascending in both representations, so consumers
    are bit-for-bit independent of which representation a row is in. *)
module Arena : sig
  type t

  val create : unit -> t
  (** An empty arena over [[0, 0)]; {!reset} sizes it. *)

  val reset : ?force_dense:bool -> t -> len:int -> unit
  (** Drops every row and the open one, for rows over [[0, len)].
      [force_dense] stores every row as a bitmap — the escape hatch the
      equivalence tests and the memory benches compare against.  Raises
      [Invalid_argument] on a negative [len]. *)

  val rows : t -> int
  (** Rows finished since the last {!reset}; they are numbered from 0. *)

  val is_forced_dense : t -> bool

  val add : t -> int -> unit
  (** [add t i] inserts element [i] into the open row. *)

  val union : t -> int -> unit
  (** [union t r] adds finished row [r]'s elements to the open row. *)

  val finish : t -> int
  (** Stores the open row as the next row, returning its number, and
      opens an empty one. *)

  val mem : t -> int -> int -> bool
  (** [mem t r i]: row [r] holds [i]. *)

  val iter_row : (int -> unit) -> t -> int -> unit
  (** Elements of one row, ascending. *)

  val cardinal_row : t -> int -> int

  val is_dense_row : t -> int -> bool
  val dense_rows : t -> int
  (** How many finished rows are stored as bitmaps. *)

  val storage_words : t -> int
  (** Words the finished rows occupy — the number the scale benches
      compare between hybrid and forced-dense builds. *)
end
