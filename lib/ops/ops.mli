(** The operations [dfcheck] and [dfcheck serve] both expose, written
    once: resolve an instance, check it, re-check an edit against a live
    incremental session, run a fault campaign, list the catalogue.  The
    CLI adds argv parsing, text rendering and exit codes; the serve
    engine adds transport (caching, coalescing, the pool, sessions,
    deadlines, envelopes).  Neither resolves, diffs or simulates on its
    own, so the two surfaces return the same documents by construction. *)

open Dfr_network
open Dfr_routing
open Dfr_core

type error =
  | Bad_request of string
      (** unknown algorithm, topology that does not parse or fit the
          algorithm, unusable plan or workload *)
  | Bad_spec of string  (** a [.dfr] input that does not compile, positioned *)
  | Check_failed of string
      (** validation or a routing function refused the instance *)

val message : error -> string

type input = Text of string | File of string

type source =
  | Named of { algo : string; topology : string option }
      (** a catalogue entry, on its default topology unless one is given *)
  | Spec of input  (** a [.dfr] specification *)

type instance = { net : Net.t; algo : Algo.t }

val instance : source -> (instance, error) result
(** Resolution only: the algorithm is validated by whatever runs it
    ({!State_space.build}), never twice. *)

val compile : input -> (Dfr_spec.Spec.t, error) result

val check : domains:int -> instance -> (Checker.report, error) result
(** {!Checker.check_result}. *)

val catalogue : unit -> Dfr_util.Json.t
(** Name, expected verdict, description and default topology of every
    catalogue entry. *)

(** {2 Incremental re-checks} *)

type session = { incr : Incr.t; validated : Dfr_spec.Validate.t }

val session : domains:int -> Dfr_spec.Spec.t -> (session * Incr.result, error) result
(** A cold {!Incr.create} on a compiled spec. *)

type fallback =
  | No_session
  | Incompatible of string  (** no frontier; the live session is untouched *)
  | Refused of string  (** {!Incr.update} refused the edit *)

type path = Fast | Replay | Cold of fallback

type delta = {
  result : Incr.result;  (** report, exit code, dirty/reused destination counts *)
  path : path;
  session : session;  (** answers for the edit from now on *)
}

val delta : domains:int -> session option -> Dfr_spec.Spec.t -> (delta, error) result
(** Diff the edit against the live session and {!Incr.update} its
    frontier; without a session, or when the edit cannot ride it, build a
    cold session on the edit.  Either way the report is the cold report's
    bytes.  A successful update mutates the live session's {!Incr.t}. *)

val path_name : path -> string
(** ["fast"], ["replay"] or ["cold"]. *)

(** {2 Fault campaigns} *)

type workload =
  | Pattern of Dfr_sim.Traffic.pattern  (** open-loop Bernoulli arrivals *)
  | Bursty of int  (** leaky-bucket bursts of this depth, uniform destinations *)
  | Storm of int list  (** multi-hotspot storm at these destinations *)
  | Permutation
  | Seeking  (** scripted packets aimed at the final verdict's witness *)

type load = { rate : float; length : int; horizon : int; seed : int }

type scenario = {
  campaign : Dfr_scenario.Scenario.campaign;
  doc : Dfr_util.Json.t;
      (** the campaign envelope, plus ["traffic"] and ["latency"] when
          those stages ran *)
  exit_code : int;  (** the campaign's, raised to 1 if the traffic deadlocked *)
}

val scenario :
  ?cold:bool ->
  ?traffic:workload * load ->
  ?latency:bool ->
  domains:int ->
  mode:[ `Sweep | `Sequence ] ->
  instance ->
  input ->
  (scenario, error) result
(** Run the plan ([input]) as a {!Dfr_scenario.Scenario.campaign}.  With
    [traffic] the workload is simulated on the final degraded instance;
    with [latency] its analytic bounds are added, cross-checked against
    the simulated p100 when both exist. *)
