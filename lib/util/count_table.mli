(** Int counts under non-negative int keys in one flat int array: open
    addressing with linear probing, nothing allocated per key.  {!create}
    sizes it once for a known key count at load 3/4, an insert past 3/4
    doubles it, and {!remove} shifts the rest of its probe run back. *)

type t

val create : int -> t
(** [create n]: an empty table that holds [n] keys without growing. *)

val absent : int
(** [min_int]: {!find}'s and {!add}'s answer for a key not held. *)

val length : t -> int
val find : t -> int -> int

val add : t -> int -> int -> int
(** [add t key d] adds [d] to [key]'s count, entering [key] at count [d]
    if absent, and returns the count before.  A count may reach 0 and
    stay.  Raises [Invalid_argument] on a negative key. *)

val remove : t -> int -> unit
