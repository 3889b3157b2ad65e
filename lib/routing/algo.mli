(** Routing algorithms in the paper's two-part formulation.

    An algorithm is a {e routing relation} — the set of output buffers a
    packet may move to, given only local information (the buffer it
    occupies, hence the node its head is at and for wormhole the input
    channel, plus the destination) — together with a {e waiting rule}: the
    buffers the packet may block on when every permitted output is busy.

    The waiting rule is the paper's key refinement: a buffer may be {e
    usable} when free yet never {e waited on} (Duato's incoherent example
    uses exactly this freedom), and only waiting dependencies can deadlock.

    [wait] distinguishes the two cases of §4: [Specific_wait] algorithms
    commit a blocked packet to a single waiting buffer (Theorem 2);
    [Any_wait] algorithms let it take whichever waiting buffer frees first
    (Theorem 3). *)

open Dfr_network

type wait_discipline = Specific_wait | Any_wait

type t = {
  name : string;
  wait : wait_discipline;
  route : Net.t -> Buf.t -> dest:int -> int list;
      (** Permitted output buffer ids.  Never called when the head is at
          the destination (delivery is handled by the engine) and never
          with a delivery buffer. *)
  waits : Net.t -> Buf.t -> dest:int -> int list;
      (** Waiting buffers; must be a subset of [route].  For
          [Specific_wait] the packet commits to one member; for [Any_wait]
          it waits on all members simultaneously. *)
  reduced_waits : (Net.t -> Buf.t -> dest:int -> int list) option;
      (** Optional declarative BWG' hint for Theorem 3: a subset of [waits]
          that the designer claims is still wait-connected and
          cycle-free.  The checker verifies the claim, never trusts it. *)
}

val make :
  name:string ->
  wait:wait_discipline ->
  route:(Net.t -> Buf.t -> dest:int -> int list) ->
  ?waits:(Net.t -> Buf.t -> dest:int -> int list) ->
  ?reduced_waits:(Net.t -> Buf.t -> dest:int -> int list) ->
  unit ->
  t
(** [waits] defaults to the full [route] set (wait on any permitted
    output). *)

val with_waits :
  t -> ?name:string -> (Net.t -> Buf.t -> dest:int -> int list) -> t
(** Same routing relation with a replacement waiting rule (the BWG'
    injection point used by the synthesis engine: the new rule is
    typically a subset of the old waits).  The declarative hint is
    dropped — the replacement {e is} the reduction. *)

val with_relation :
  t -> ?name:string -> (Net.t -> Buf.t -> dest:int -> int list) -> t
(** Replacement routing relation; [waits] follows it (wait on every
    permitted output) and the hint is dropped.  Used by restriction
    repair, which edits the relation itself. *)

val wait_everywhere : t -> t
(** Same relation, but waiting on every permitted output ([Any_wait],
    hint discarded).  Used by ablation experiments. *)

val state_problems :
  Net.t ->
  Buf.t ->
  dest:int ->
  outputs:int list ->
  waits:int list ->
  reduced_waits:int list option ->
  string list
(** The structural contract at one routed state (a transit or injection
    buffer whose head is not at [dest]), given the raw [route] list, the
    waits and, when the algorithm carries one, the hint's value there: no
    output repeats, no output is an injection buffer or another node's
    delivery buffer, every channel output is adjacent (its source
    endpoint is the packet's head node), waits ⊆ outputs and reduced
    waits ⊆ waits.  Returns the problems in that order; [[]] when the
    state is well formed.  [State_space.build] runs it on every reachable
    state. *)

val state_ok :
  Net.t ->
  Buf.t ->
  dest:int ->
  outputs:int list ->
  waits:int list ->
  reduced_waits:int list option ->
  bool
(** [state_problems ... = []], decided without allocating: the check
    [State_space.build] runs on every state it routes, building the
    messages with {!state_problems} only for a state that fails. *)

val validate : t -> Net.t -> (unit, string) result
(** {!state_problems} on every routed (buffer, destination) pair,
    reachable or not, in buffer-major then destination order; the error
    joins the problems with ["; "].  The checker never calls it — it
    validates reachable states only — so this serial sweep is the
    reference the tests compare that against, and the catalogue's
    all-pairs well-formedness check. *)
