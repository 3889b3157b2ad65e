(** Direct search for a deadlock configuration (§3's definition).

    A greatest-fixed-point computation over single-buffer packets: find a
    set of reachable, unarrived states — at most one per buffer — such that
    every state's {e entire} output set lies inside the occupied buffer
    set.  Each buffer then holds a packet none of whose outputs can ever
    free, which is precisely a deadlock configuration (every waiting buffer
    is occupied by another packet of the set, for any waiting discipline).

    The test is sound and polynomial, but not complete: configurations that
    need multi-buffer worms to cover the blocking set are missed, which is
    why the checker still runs the full Theorem 2/3 machinery afterwards.
    It exists because it instantly dispatches grossly under-restricted
    algorithms (the "unrestricted" controls) whose BWGs have far too many
    cycles to enumerate. *)

type t = (int * int) list
(** The configuration: one (buffer, destination) packet per buffer. *)

val find : State_space.t -> t option
(** [Some config] is a deadlock configuration, each buffer holding the
    packet of its lowest surviving destination; [None] means no
    single-buffer-per-packet configuration exists. *)

val verify : State_space.t -> t -> bool
(** Re-checks the defining property (used by tests): states are reachable,
    unarrived, pairwise distinct in buffer, and all outputs stay inside the
    configuration's buffer set. *)
