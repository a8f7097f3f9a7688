(* Raw samples, exact percentiles and in-memory spans.

   Every percentile the benchmark prints is computed here from the raw
   samples (never from histogram buckets), by linear interpolation
   between closest ranks. *)

(* Monotonic, nanosecond resolution. *)
let now_ms = Telemetry.now_ms

(* CPU time of this process and of the child processes it has waited
   for (the native compiler and the tools it runs), from getrusage, at
   microsecond resolution.  Unlike [now_ms] it leaves out the time the
   process was not running: preempted by other tasks of a shared host
   or, on a virtual machine, taken away by the hypervisor (steal).  Only
   meaningful while the process runs one domain. *)
let cpu_ms () =
  let t = Unix.times () in
  1000.0 *. (t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime)

(* A growable buffer of float samples.  Not domain-safe. *)
type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 64 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* The [q]-quantile ([0 <= q <= 1]) of the samples; [nan] when empty. *)
let quantile t q =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median t = quantile t 0.5

(* {1 Spans}

   One span per layer call made by the benchmark's traced run: name,
   start and end (ms), the enclosing span, and the query it belongs
   to.  Spans stay in memory and are written out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** [0] for a root *)
  qid : int;
  name : string;
  start_ms : float;
  end_ms : float;
}

type tracer = { mutable spans : span list; mutable next : int }

let tracer () = { spans = []; next = 1 }

let span tr ~qid ~parent name f =
  let id = tr.next in
  tr.next <- id + 1;
  let start_ms = now_ms () in
  let finish () =
    tr.spans <-
      { id; parent; qid; name; start_ms; end_ms = now_ms () } :: tr.spans
  in
  match f id with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* Self time of every span: its duration minus the part of it that its
   children cover.  Children are sequential in this benchmark, so the
   covered part is the sum of their durations. *)
let self_times tr =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.end_ms -. s.start_ms in
      Hashtbl.replace child s.parent
        (d +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    tr.spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      s, s.end_ms -. s.start_ms -. covered)
    tr.spans

let write_spans path trs =
  let oc = open_out path in
  List.iter
    (fun tr ->
      List.iter
        (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"qid\":%d,\"name\":%S,\"start_ms\":%.4f,\"end_ms\":%.4f}\n"
            s.id s.parent s.qid s.name s.start_ms s.end_ms)
        (List.rev tr.spans))
    trs;
  close_out oc
