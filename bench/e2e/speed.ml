(* Machine-speed calibration.  On a shared machine the CPU runs slower or
   faster by 10-50 %, flipping within seconds and drifting over tens of
   minutes (CPU time moves exactly as wall time does), and every timing
   moves with it.  A fixed workload of harness code, run in a fresh child
   between operations every second and a half, samples the speed the
   operations around it met.  Each operation and set-up is reported at
   the reference speed: raw × reference_ms / (the probe taken next after
   it).  In trials on a 2-core VM, probes taken only before and after a
   run tracked it worse than no probe at all, the run's median probe less
   well than the next probe, and a probe a third this size less well than
   this one.  No change to dfr can move the probe, so a real speed-up
   shows in full. *)

(* The probe's time on the machine the benchmark was sized on (2 cores);
   it only fixes the unit of the scaled timings. *)
let reference_ms = 450.

(* Sorting, hashing and list building over some 20 MB: the
   allocation-heavy, cache-missing mix the checker itself runs, about
   450 ms. *)
let workload () =
  let t0 = Proc.now () in
  let st = Random.State.make [| 7 |] in
  let a = Array.init 1_000_000 (fun _ -> Random.State.int st 1_000_000_000) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  for i = 0 to 300_000 do
    Hashtbl.replace h (a.(i * 3) land 0xfffff) i
  done;
  let l = List.init 500_000 Fun.id in
  ignore (Sys.opaque_identity (List.length l + Hashtbl.length h));
  (Proc.now () -. t0) *. 1000.

(* One probe: when its child was spawned and reaped (Proc.now, the
   system-wide monotonic clock, so a child's probes line up with its
   parent's) and the probe's own time. *)
type probe = { start : float; stop : float; ms : float }

type t = {
  enabled : bool;  (** traced runs report no end-to-end timings, so skip the probes *)
  log : string;
  self : string;  (** the dfbench executable, run as [child probe] *)
  mutable last : float;  (** when the last probe ended *)
  mutable probes : probe list;  (** oldest first *)
}

let create ~enabled ~log ~self = { enabled; log; self; last = neg_infinity; probes = [] }

(* Whether a second and a half has passed since the last probe. *)
let due t = t.enabled && Proc.now () -. t.last >= 1.5

(* Probe if one is due; call between operations, never during one. *)
let tick t =
  if due t then begin
    let start = Proc.now () in
    let out, ex = Proc.run ~log:t.log t.self [ "child"; "probe" ] in
    t.last <- Proc.now ();
    match float_of_string_opt (String.trim out) with
    | Some ms when ex.Proc.code = 0 -> t.probes <- t.probes @ [ { start; stop = t.last; ms } ]
    | _ -> failwith (Printf.sprintf "speed probe failed (exit %d)" ex.Proc.code)
  end

(* Probes a child took, merged in time order. *)
let add t probes =
  t.probes <- List.sort (fun a b -> compare a.start b.start) (t.probes @ probes)

let factor p = p.ms /. reference_ms

(* The slowdown (above 1: slower than the reference) for something that
   ended at [time]: the next probe's, or the last one's after the last
   probe; 1 without probes. *)
let slowdown_at t time =
  match List.find_opt (fun p -> p.start >= time) t.probes with
  | Some p -> factor p
  | None -> ( match List.rev t.probes with p :: _ -> factor p | [] -> 1.)

let median_slowdown t = match t.probes with [] -> 1. | ps -> Stats.median (List.map factor ps)

(* Wall time spent probing between [from] and [until]. *)
let probing t ~from ~until =
  List.fold_left
    (fun acc p -> if p.start >= from && p.start < until then acc +. (p.stop -. p.start) else acc)
    0. t.probes

(* Times cross from a child to its parent as whole microseconds: JSON
   floats keep only twelve digits. *)
let time_to_json t = Dfr_util.Json.Int (int_of_float (t *. 1e6))

let time_of_json = function
  | Dfr_util.Json.Int us -> float_of_int us /. 1e6
  | _ -> failwith "time: microseconds expected"

let probe_to_json p = Dfr_util.Json.(List [ time_to_json p.start; time_to_json p.stop; Float p.ms ])

let probe_of_json = function
  | Dfr_util.Json.List [ a; b; Dfr_util.Json.Float ms ] ->
    { start = time_of_json a; stop = time_of_json b; ms }
  | _ -> failwith "probe: [start, stop, ms] expected"
