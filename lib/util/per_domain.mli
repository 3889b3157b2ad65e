(** One reusable value per domain: scratch that a pass fills and clears
    for every work item, kept across items, calls and checks so that the
    pass allocates only what it returns.  Each domain sees its own value
    (domain-local storage), so pool workers never share one. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make fresh] declares the value; each domain's is made by [fresh] on
    its first {!use}. *)

val use : 'a t -> ('a -> 'b) -> 'b
(** [use t f] runs [f] on this domain's value.  A [use] nested inside
    another on the same domain gets a [fresh] value of its own.  [f]
    must leave the value ready for the next [use], also when it raises:
    this module only releases it. *)
