(* The repository benchmark.

     bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   The metric names and units below are those of BENCHMARK.json at the
   root of the repository, which also gives each workload's reason.

   Every workload runs the same phases on its own inputs; what differs
   is the input size of the fixed shapes, the serve mix, and each
   phase's share of --seconds.  The phases take turns in rounds (see
   [metered]), so that every metric's samples are spread over the whole
   run, in three processes:

   - this process, with one domain, timed in CPU time ({!Sample.cpu_ms}:
     the process and the compiler processes it waits for):
     - prepare: a seeded stream of never-seen 1k-row pipelines
       ({!Gen}), each prepared and run once on a Native engine over an
       empty disk cache (cold); after each round, a fresh engine over
       the same store prepares and runs once more every shape added in
       the round (restart), so each restart is the first load of its
       stored plugin in this process;
     - scan: the fixed shapes ({!Fixed}), prepared during set-up, run
       sequentially on Native;
   - two children with the domain pool, timed in wall-clock time (see
     [fork_child]):
     - par: the homomorphic fixed shapes through [Par] and [Dryad] on 2
       workers;
     - serve: one closed-loop client submitting to a [Server] over an
       engine tiered at threshold 1 with a disk cache; hot requests run
       the client's promoted handle of a fixed shape, and never-seen
       shapes are prepared in the request and compile in the
       background.

   Every workload serves the fixed shapes over [serve_rows] rows, and
   makes one request in 32 a never-seen shape.  (With hot shapes only,
   the p99 fell where the slowest shape's samples end and the rare
   collector pauses begin, and moved by a third between runs with the
   host's hiccups; the background compiles give the tail a steady
   mass.)  cold-shapes gives the prepare phase most of the time and
   runs the fixed shapes over 50k rows; hot-scan runs them over 2M rows;
   serve-mix runs them over 50k rows, gives the server most of the time
   and makes one request in 16 a never-seen shape, so its query figures
   against cold-shapes' show what twice the background compiles cost
   the hot requests.

   End-to-end metrics, each printed on every workload:
   - setup_s: median of 5 set-ups, each a fresh Native engine over an
     empty store preparing and running once every fixed shape (CPU
     time);
   - heap_peak_mb: the largest major heap of this process seen after
     any checked operation (it includes the harness's own data: the
     fixed shapes' inputs and reference results, and the sample
     buffers).  The children's heaps are left out: how far a heap grows
     past its live data while two par workers allocate depends on when
     the collector's cycles end, and varied by a quarter between runs;
   - prepare_cold_ms.p50/.p90 and prepare_restart_ms.p50: prepare plus
     first run of the prepare phase's cold and restart passes (CPU
     time);
   - scan_rows_per_s (CPU time) and par_rows_per_s (wall-clock time):
     geometric mean over the shapes of rows over the shape's median run
     time;
   - query_ms.p50/.p99: submit to result of the serve phase's requests;
   - throughput_qps: serve requests completed per second.
   Every percentile comes from raw samples ({!Sample}); the sample
   counts are printed on the line before the result.

   All timings are taken here, around public entry points; nothing
   under lib/ is instrumented.  With --trace 1 the same phases run, and
   the benchmark also takes the first 40 never-seen shapes through each
   prepare layer's public function in pipeline order, one span per call
   (written to .perfbench/spans-<workload>-<seed>.jsonl), measures
   per-row run costs on every backend, and prints the per-layer metrics
   instead of the end-to-end ones, each with the end-to-end metric it
   should move.  Spans are in wall-clock time.

   Every query result is checked against [Reference]; a wrong, failed or
   rejected result counts in [failed] and makes [correct] false. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* {1 Metrics: names, units, and what each per-layer metric should move} *)

let end_to_end =
  [
    "setup_s", "s";
    "heap_peak_mb", "MB";
    "prepare_cold_ms.p50", "ms";
    "prepare_cold_ms.p90", "ms";
    "prepare_restart_ms.p50", "ms";
    "scan_rows_per_s", "1/s";
    "par_rows_per_s", "1/s";
    "query_ms.p50", "ms";
    "query_ms.p99", "ms";
    "throughput_qps", "1/s";
  ]

(* The fixed shapes' names (building the shapes is cheap: their
   reference results are computed on demand). *)
let fixed_names = List.map (fun (s : Shape.t) -> s.Shape.name) (Fixed.shapes ~seed:0 ~n:1_000)

(* name, unit, the end-to-end metric (and workload) it moves *)
let per_layer =
  let cold = "prepare_cold_ms on cold-shapes" in
  let restart = "prepare_restart_ms on cold-shapes" in
  let scan = "scan_rows_per_s on hot-scan" in
  let par = "par_rows_per_s on hot-scan" in
  let q = "query_ms.p50/p99 on serve-mix" in
  let qt = "query_ms.p99 and throughput_qps on serve-mix" in
  [
    "quil.canon_ms", "ms", cold;
    "opt.optimize_ms", "ms", cold;
    "opt.rules_fired", "count", cold;
    "check.verify_ms", "ms", cold;
    "check.obligations", "count", cold;
    "check.lint_ms", "ms", cold;
    "codegen.generate_ms", "ms", cold;
    "codegen.source_bytes", "bytes", cold;
    "dynload.compile_ms", "ms", cold;
    "dynload.load_ms", "ms", cold;
    "pcache.store_ms", "ms", cold;
    "steno.prepare_coverage", "ratio", cold;
    "trace.overhead_ms", "ms", cold;
    "pcache.find_ms", "ms", restart;
    "pcache.hit_ratio", "ratio", restart;
    "dynload.restart_load_ms", "ms", restart;
  ]
  @ List.concat_map
      (fun s ->
        [
          "codegen.run_ns_per_row." ^ s, "ns", scan;
          "codegen.alloc_words_per_row." ^ s, "words", scan;
          "fused.run_ns_per_row." ^ s, "ns", q;
          "enumerable.run_ns_per_row." ^ s, "ns", q;
        ])
      fixed_names
  @ [
      "par.partition_ms", "ms", par;
      "par.run_ms", "ms", par;
      "par.speedup", "ratio", par;
      "par.alloc_words_per_row", "words", par;
      "dryad.busy_ms", "ms", par;
      "dryad.exchanged", "count", par;
      "server.queue_ms.p50", "ms", qt;
      "server.queue_ms.p99", "ms", qt;
      "server.rejected", "count", qt;
      "steno.lru_hit_ratio", "ratio", qt;
      "steno.compiles_per_new_shape", "count", qt;
      "steno.tier0_share", "ratio", qt;
      "steno.promote_ms.p50", "ms", qt;
      "steno.session_prepare_ms.p50", "ms", qt;
      "steno.run_ms.p50", "ms", qt;
    ]

(* {1 Workloads} *)

(* Source rows of the served fixed shapes on every workload, and of the
   scanned ones except on hot-scan: over 2M rows too few requests
   finish in a run for a steady p99, and over 1k rows the p99 and a
   partitioned run's time are those of the host's scheduling, not of
   the queries. *)
let serve_rows = 50_000

type workload = {
  w_name : string;
  rows : int;  (** source rows of the fixed shapes *)
  new_every : int;  (** serve: one request in [new_every] is a new shape *)
  (* shares of --seconds: cold stream, scan, par, serve *)
  shares : float * float * float * float;
}

let workloads =
  [
    { w_name = "cold-shapes"; rows = serve_rows; new_every = 32; shares = 0.55, 0.08, 0.07, 0.30 };
    { w_name = "hot-scan"; rows = 2_000_000; new_every = 32; shares = 0.14, 0.18, 0.18, 0.50 };
    { w_name = "serve-mix"; rows = serve_rows; new_every = 16; shares = 0.14, 0.08, 0.08, 0.70 };
  ]

(* {1 Run state} *)

let attempted = Atomic.make 0

let failed = Atomic.make 0

(* The largest major heap seen after any checked operation of the
   measured phases. *)
let heap_peak_words = Atomic.make 0

let count ok =
  Atomic.incr attempted;
  if not ok then Atomic.incr failed;
  let h = (Gc.quick_stat ()).Gc.heap_words in
  let rec raise_peak () =
    let p = Atomic.get heap_peak_words in
    if h > p && not (Atomic.compare_and_set heap_peak_words p h) then raise_peak ()
  in
  raise_peak ()

(* Run [f], counting an exception as a failed operation. *)
let guarded f =
  match f () with
  | r -> Some r
  | exception e ->
    Printf.eprintf "perfbench: operation failed: %s\n%!" (Printexc.to_string e);
    count false;
    None

let time ?(clock = Sample.now_ms) f =
  let t0 = clock () in
  let r = f () in
  r, clock () -. t0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Every store and every compiler scratch file lives under one fresh
   directory inside the checkout, removed at exit, so no cold prepare is
   ever served from an earlier run's store. *)
let scratch = ref ""

let store_seq = ref 0

(* The traced passes' spans, written out when the run ends. *)
let tracers : Sample.tracer list ref = ref []

let fresh_store () =
  incr store_seq;
  let d = Filename.concat !scratch (Printf.sprintf "store-%d" !store_seq) in
  Sys.mkdir d 0o755;
  d

let native_engine ?(tiering = false) dir =
  Steno.Engine.create
    Steno.Config.(
      default
      |> with_backend Steno.Native
      |> with_fallback false
      |> with_metrics (Metrics.create ())
      |> with_disk_cache ~dir
      |> fun c -> if tiering then with_tiering ~threshold:1 c else c)

let geomean = function
  | [] -> Float.nan
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* A shape's run times, by name and rows: the shapes themselves, which
   hold their inputs, are released before the serve phase. *)
type runs = { r_name : string; r_rows : int; times : Sample.t }

let runs (s : Shape.t) times = { r_name = s.Shape.name; r_rows = s.Shape.rows; times }

(* Rows per second of one shape: its rows over its median run time. *)
let rows_per_s x = float_of_int x.r_rows /. (Sample.median x.times /. 1000.0)

(* {1 Phases} *)

type results = {
  setup_s : Sample.t;
  cold : Sample.t;
  restart : Sample.t;
  mutable scan : runs list;
  mutable par : runs list;
  query : Sample.t;
  mutable qps : float;
  layers : (string, float) Hashtbl.t;  (** per-layer values, traced runs *)
}

let set r k v = Hashtbl.replace r.layers k v

(* Prepare and run once, timed together: the time to the first result,
   in CPU time unless [clock] says otherwise. *)
let prepare_first ?(clock = Sample.cpu_ms) ?backend eng (s : Shape.t) =
  guarded (fun () ->
      let (p, check), ms =
        time ~clock (fun () ->
            let p = s.Shape.prepare ?backend eng in
            p, p.Shape.run ())
      in
      count (check ());
      p, ms)

(* The traced prepare: every layer call under a span, rooted at one
   span per shape. *)
let traced_prepare tr counts pc ~qid root (s : Shape.t) =
  ignore
    (guarded (fun () ->
         Sample.span tr ~qid ~parent:0 root (fun parent ->
             count (s.Shape.pipeline tr ~qid ~parent pc counts))))

(* The root spans named [root], and for a layer name the median over
   those roots of the layer's summed self time under each. *)
let layer_medians tr ~root =
  let selfs = Sample.self_times tr in
  let roots = List.filter (fun ((s : Sample.span), _) -> s.name = root) selfs in
  let per_layer = Hashtbl.create 16 in
  List.iter
    (fun ((r : Sample.span), _) ->
      let sums = Hashtbl.create 16 in
      List.iter
        (fun ((s : Sample.span), self) ->
          if s.parent = r.id then
            Hashtbl.replace sums s.name
              (self +. Option.value ~default:0.0 (Hashtbl.find_opt sums s.name)))
        selfs;
      Hashtbl.iter
        (fun name v ->
          let t =
            match Hashtbl.find_opt per_layer name with
            | Some t -> t
            | None ->
              let t = Sample.create () in
              Hashtbl.replace per_layer name t;
              t
          in
          Sample.add t v)
        sums)
    roots;
  roots, fun name -> Option.fold ~none:0.0 ~some:Sample.median (Hashtbl.find_opt per_layer name)

(* Layer figures of a traced cold pass and restart pass, against the
   untraced wall-clock timings [untraced] (qid -> ms) of the same
   shapes. *)
let report_prepare_layers r tr (c : Shape.counts) (rc : Shape.counts) ~shapes ~untraced =
  let roots, med = layer_medians tr ~root:"steno.prepare" in
  set r "quil.canon_ms" (med "quil.canon");
  set r "opt.optimize_ms" (med "opt.optimize");
  set r "check.verify_ms" (med "check.verify");
  set r "check.lint_ms" (med "check.lint");
  set r "codegen.generate_ms" (med "codegen.generate");
  set r "dynload.compile_ms" (med "dynload.compile");
  set r "dynload.load_ms" (med "dynload.load");
  set r "pcache.store_ms" (med "pcache.store");
  let n = float_of_int (max 1 shapes) in
  set r "opt.rules_fired" (float_of_int c.Shape.rules /. n);
  set r "check.obligations" (float_of_int c.Shape.obligations /. n);
  set r "codegen.source_bytes" (float_of_int c.Shape.source_bytes /. n);
  let cover = Sample.create () and over = Sample.create () in
  let selfs = Sample.self_times tr in
  List.iter
    (fun ((root : Sample.span), _) ->
      match Hashtbl.find_opt untraced root.qid with
      | None -> ()
      | Some ms ->
        let layered =
          List.fold_left
            (fun a ((s : Sample.span), self) -> if s.parent = root.id then a +. self else a)
            0.0 selfs
        in
        Sample.add cover (layered /. ms);
        Sample.add over (root.end_ms -. root.start_ms -. ms))
    roots;
  set r "steno.prepare_coverage" (Sample.median cover);
  set r "trace.overhead_ms" (Sample.median over);
  let _, rmed = layer_medians tr ~root:"steno.prepare_restart" in
  set r "pcache.find_ms" (rmed "pcache.find");
  set r "dynload.restart_load_ms" (rmed "dynload.load");
  set r "pcache.hit_ratio"
    (if rc.Shape.finds = 0 then 0.0
     else float_of_int rc.Shape.hits /. float_of_int rc.Shape.finds);
  (* Negative when the traced layer calls took longer than the untraced
     prepare they are compared with (compile times vary by a few ms). *)
  Printf.printf "traced prepare: %d shapes, unattributed share of prepare_cold_ms.p50 = %.3f\n"
    (List.length roots) (1.0 -. Sample.median cover)

(* {2 Metered phases}

   A run is [rounds] rounds; in each, every phase does work units until
   its share of the time so far is spent (shares are of wall-clock
   time).  So every metric's samples are spread over the whole run, and
   a slow spell of the host (they last seconds) weighs on all of them
   alike instead of on one phase. *)

let rounds = 20

type meter = { budget_ms : float; mutable used_ms : float }

let meter ms = { budget_ms = ms; used_ms = 0.0 }

(* Run [unit] until the meter has spent its share for [round]; after
   the last round, at least once. *)
let metered m ~round unit =
  let allowed = m.budget_ms *. float_of_int round /. float_of_int rounds in
  let once () =
    let t0 = Sample.now_ms () in
    unit ();
    m.used_ms <- m.used_ms +. (Sample.now_ms () -. t0)
  in
  while m.used_ms < allowed do once () done;
  if round = rounds && m.used_ms = 0.0 then once ()

(* {2 Prepare} *)

(* The never-seen stream: shapes drawn from the generator and prepared
   on one engine over an empty store. *)
type stream = {
  st_gen : Gen.env;
  st_eng : Steno.Engine.t;
  st_dir : string;
  mutable drawn : int;
  mutable fresh : Shape.t list;  (** not yet restarted, newest first *)
  mutable first : Shape.t list;  (** the first 40, for the traced pass *)
}

let stream_shape r st =
  st.drawn <- st.drawn + 1;
  let s = Gen.shape st.st_gen st.drawn in
  (match prepare_first st.st_eng s with
  | Some (p, ms) ->
    if p.Shape.cache_hit then Printf.printf "note: %s was not new to the cache\n" s.Shape.name;
    Sample.add r.cold ms
  | None -> ());
  st.fresh <- s :: st.fresh;
  if st.drawn <= 40 then st.first <- s :: st.first

(* A restart: a fresh engine over the stream's store prepares and runs
   once every shape not restarted yet.  Each shape is restarted once, so
   each sample loads a stored plugin this process has not loaded before
   (the cold pass loaded the compiler's output, not the stored copy). *)
let restart_fresh r st =
  if st.fresh <> [] then begin
    let eng = native_engine st.st_dir in
    List.iter
      (fun s -> Option.iter (fun (_, ms) -> Sample.add r.restart ms) (prepare_first eng s))
      (List.rev st.fresh);
    st.fresh <- []
  end

(* The traced pass over [shapes]: each prepared untraced on a fresh
   engine over an empty store (timed), and through the layer-by-layer
   pipeline against its own empty store; then a restart of the second:
   a new store handle over the store just filled. *)
let traced_pass r shapes =
  let tr = Sample.tracer () in
  let c = Shape.counts () and rc = Shape.counts () in
  let eng = native_engine (fresh_store ()) in
  let manual = fresh_store () in
  let pc () = Pcache.create ~fingerprint:(Dynload.fingerprint ()) ~dir:manual () in
  let untraced = Hashtbl.create 64 in
  let cold = pc () in
  List.iteri
    (fun qid s ->
      Option.iter
        (fun (_, ms) -> Hashtbl.replace untraced qid ms)
        (prepare_first ~clock:Sample.now_ms eng s);
      traced_prepare tr c cold ~qid "steno.prepare" s)
    shapes;
  let restart = pc () in
  List.iteri (fun qid s -> traced_prepare tr rc restart ~qid "steno.prepare_restart" s) shapes;
  report_prepare_layers r tr c rc ~shapes:(List.length shapes) ~untraced;
  tracers := tr :: !tracers

(* {2 Sequential and partitioned scans} *)

(* A sequentially scanned fixed shape.  [batch] runs make one sample, so
   that a sample takes about 2 ms of CPU time or more (getrusage counts
   microseconds). *)
type scan_item = { sc_shape : Shape.t; sc_run : unit -> unit -> bool; batch : int; sc_t : Sample.t }

(* The first run, checked, sizes the batch. *)
let scan_item (s, (p : Shape.prepared)) =
  Option.map
    (fun ms ->
      let batch = max 1 (int_of_float (Float.ceil (2.0 /. Float.max ms 0.01))) in
      { sc_shape = s; sc_run = p.Shape.run; batch; sc_t = Sample.create () })
    (guarded (fun () ->
         let check, ms = time ~clock:Sample.cpu_ms p.Shape.run in
         count (check ());
         ms))

(* One sample: [batch] runs in CPU time, checked after the clock stops. *)
let scan_once it =
  Option.iter (Sample.add it.sc_t)
    (guarded (fun () ->
         let checks, ms =
           time ~clock:Sample.cpu_ms (fun () -> List.init it.batch (fun _ -> it.sc_run ()))
         in
         List.iter (fun check -> count (check ())) checks;
         ms /. float_of_int it.batch))

(* One timed, checked execution per item, in turn, in wall-clock time. *)
let sweep items =
  List.iter
    (fun (f, t) ->
      Option.iter (Sample.add t)
        (guarded (fun () ->
             let check, ms = time f in
             count (check ());
             ms)))
    items

(* {2 Serve} *)

type client = {
  gen : Gen.env;
  mutable turn : int;
  lat : Sample.t;
  queue : Sample.t;
  prep : Sample.t;
  run : Sample.t;
  mutable fused : int;
  mutable fresh : int;
  mutable checks : (unit -> bool) list;  (** run after each window *)
}

type serve = {
  sv_eng : Steno.Engine.t;
  server : Server.t;
  hot : Shape.prepared array;  (** promoted to Native in warm-up *)
  client : client;
  every : int;
  promote : Sample.t;
  prepared : int Atomic.t;
      (** tiered preparations, each promoted in the background on its
          first run *)
  mutable wall_ms : float;
  mutable compiled : int;
}

let submit server ~client_id f =
  match Server.submit server ~client_id f with
  | Server.Done x -> Some x
  | Server.Rejected _ -> count false; None
  | Server.Failed e ->
    Printf.eprintf "perfbench: request failed: %s\n%!" (Printexc.to_string e);
    count false;
    None

let counter eng name result =
  Metrics.counter_value (Metrics.counter (Steno.Engine.metrics eng) name ~labels:[ "result", result ])

let compiles eng = counter eng "steno_compile" "ok"

let promotions eng =
  counter eng "steno_tier_promotions" "ok" + counter eng "steno_tier_promotions" "failed"

(* Wait until every tiered preparation's background promotion has
   finished, so that no compile started in a serve window runs on into
   the next phase. *)
let settle sv =
  let deadline = Sample.now_ms () +. 60_000.0 in
  while promotions sv.sv_eng < Atomic.get sv.prepared && Sample.now_ms () < deadline do
    Unix.sleepf 0.001
  done;
  if promotions sv.sv_eng < Atomic.get sv.prepared then begin
    prerr_endline "perfbench: background promotions did not finish";
    count false
  end

(* One Server over an engine tiered at threshold 1, with its own disk
   cache.  Warm-up: the client prepares each hot shape in its session
   and runs it once, which promotes it to Native in the background, and
   waits for that.  The client keeps these handles and runs them again
   for every hot request, as a caller of a prepared query does.  (A
   handle prepared again starts on the Fused tier, and its first run
   races its own promotion, which finds the plugin in the engine's cache
   at once: hot requests that re-prepared would answer on either tier,
   by the race, and the median request would fall between the two.) *)
let serve_start w ~seed shapes =
  let eng = native_engine ~tiering:true (fresh_store ()) in
  let server = Server.create ~max_inflight:1 ~max_queue:64 eng in
  let promote = Sample.create () and prepared = Atomic.make 0 in
  let warm (s : Shape.t) sess =
    let p = (Option.get s.Shape.session_prepare) sess in
    Atomic.incr prepared;
    let t = Sample.now_ms () in
    count (p.Shape.run () ());
    p, t
  in
  let promoted ((p : Shape.prepared), t) =
    let deadline = t +. 60_000.0 in
    while p.Shape.backend () <> Steno.Native && Sample.now_ms () < deadline do
      Unix.sleepf 0.0005
    done;
    if p.Shape.backend () = Steno.Native then Sample.add promote (Sample.now_ms () -. t)
    else count false;
    p
  in
  let hot =
    List.filter_map
      (fun (s : Shape.t) ->
        if s.Shape.session_prepare = None then None
        else Option.map promoted (submit server ~client_id:"client" (warm s)))
      shapes
  in
  let client =
    {
      gen = Gen.env ~seed ~stream:1; turn = 0; lat = Sample.create (); queue = Sample.create ();
      prep = Sample.create (); run = Sample.create (); fused = 0; fresh = 0; checks = [];
    }
  in
  {
    sv_eng = eng; server; hot = Array.of_list hot; client; every = w.new_every; promote; prepared;
    wall_ms = 0.0; compiled = 0;
  }

(* A closed loop until [until].  Every [new_every]th request prepares a
   never-seen shape in the server's session and runs it; the others run
   the next hot shape's handle in turn (in turn, not at random, so each
   hot shape has an exact share of the samples). *)
let client_loop sv (c : client) ~until =
  while Sample.now_ms () < until do
    c.turn <- c.turn + 1;
    let request sess =
      let t_start = Sample.now_ms () in
      let p, prep_ms =
        if sv.every > 0 && c.turn mod sv.every = 0 then begin
          c.fresh <- c.fresh + 1;
          let s = Gen.shape c.gen (1_000_000 + c.fresh) in
          let p, ms = time (fun () -> (Option.get s.Shape.session_prepare) sess) in
          Atomic.incr sv.prepared;
          p, Some ms
        end
        else sv.hot.(c.turn mod Array.length sv.hot), None
      in
      (* The tier the run starts on: the promotion a new shape's run
         starts cannot finish before the run has read its tier. *)
      let backend = p.Shape.backend () in
      let check, run_ms = time p.Shape.run in
      t_start, prep_ms, run_ms, backend, check
    in
    let t_submit = Sample.now_ms () in
    let outcome = submit sv.server ~client_id:"client" request in
    let t_done = Sample.now_ms () in
    Option.iter
      (fun (t_start, prep_ms, run_ms, backend, check) ->
        Sample.add c.lat (t_done -. t_submit);
        Sample.add c.queue (t_start -. t_submit);
        Option.iter (Sample.add c.prep) prep_ms;
        Sample.add c.run run_ms;
        if backend <> Steno.Native then c.fused <- c.fused + 1;
        (* Reference results are computed after the window, so the
           harness does not compete with the client. *)
        c.checks <- check :: c.checks)
      outcome
  done

(* One window of [ms], the client on this domain.  One client, not one
   per core: never-seen shapes compile on the engine's domain pool, and
   with a second client more domains would be runnable than the host
   has cores.  The
   collector first finishes the major cycle the other phases' garbage
   started, so that debt is not paid inside the window. *)
let serve_window sv ~ms =
  Gc.full_major ();
  let c0 = compiles sv.sv_eng in
  let t0 = Sample.now_ms () in
  client_loop sv sv.client ~until:(t0 +. ms);
  sv.wall_ms <- sv.wall_ms +. (Sample.now_ms () -. t0);
  settle sv;
  sv.compiled <- sv.compiled + (compiles sv.sv_eng - c0);
  List.iter (fun check -> count (check ())) sv.client.checks;
  sv.client.checks <- []

let serve_finish r sv =
  Server.shutdown sv.server;
  let c = sv.client in
  for i = 0 to Sample.count c.lat - 1 do Sample.add r.query c.lat.Sample.data.(i) done;
  let served = Sample.count c.lat in
  r.qps <- float_of_int served /. (sv.wall_ms /. 1000.0);
  set r "server.queue_ms.p50" (Sample.quantile c.queue 0.5);
  set r "server.queue_ms.p99" (Sample.quantile c.queue 0.99);
  set r "server.rejected" (float_of_int (Server.stats sv.server).Server.rejected);
  let cs = Steno.Engine.cache_stats sv.sv_eng in
  let lookups = cs.Steno.Engine.hits + cs.Steno.Engine.misses in
  set r "steno.lru_hit_ratio"
    (if lookups = 0 then 0.0 else float_of_int cs.Steno.Engine.hits /. float_of_int lookups);
  set r "steno.compiles_per_new_shape"
    (if c.fresh = 0 then 0.0 else float_of_int sv.compiled /. float_of_int c.fresh);
  set r "steno.tier0_share" (float_of_int c.fused /. float_of_int (max 1 served));
  set r "steno.promote_ms.p50" (Sample.median sv.promote);
  (* Only never-seen shapes are prepared per request: 0 without them. *)
  set r "steno.session_prepare_ms.p50" (if c.fresh = 0 then 0.0 else Sample.median c.prep);
  set r "steno.run_ms.p50" (Sample.median c.run);
  Printf.printf "serve: %d requests (%d never-seen) in %.2f s, query_ms.p99 from %d samples\n"
    served c.fresh (sv.wall_ms /. 1000.0) served

(* {2 Per-row run costs on every backend (traced runs)} *)

(* Words allocated by this domain: exact, where [Gc.quick_stat] only
   counts a minor heap's words once it is collected. *)
let minor_words = Gc.minor_words

(* Words allocated by every domain: for partitioned runs, whose workers
   allocate on their own domains.  [Gc.quick_stat] counts a domain's
   words as of its last minor collection, so one is forced first (it
   empties every domain's minor heap). *)
let all_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let run_costs r eng shapes =
  List.iter
    (fun (s : Shape.t) ->
      let per_row = float_of_int (max 1 s.Shape.rows) in
      let measure backend =
        match guarded (fun () -> s.Shape.prepare ~backend eng) with
        | None -> Sample.create (), Sample.create ()
        | Some p ->
          ignore (guarded (fun () -> count (p.Shape.run () ())));
          let ns = Sample.create () and words = Sample.create () in
          for _ = 1 to 3 do
            ignore
              (guarded (fun () ->
                   let w0 = minor_words () in
                   let check, ms = time p.Shape.run in
                   Sample.add words ((minor_words () -. w0) /. per_row);
                   Sample.add ns (ms *. 1e6 /. per_row);
                   count (check ())))
          done;
          ns, words
      in
      let ns, words = measure Steno.Native in
      set r ("codegen.run_ns_per_row." ^ s.Shape.name) (Sample.median ns);
      set r ("codegen.alloc_words_per_row." ^ s.Shape.name) (Sample.median words);
      let ns, _ = measure Steno.Fused in
      set r ("fused.run_ns_per_row." ^ s.Shape.name) (Sample.median ns);
      let ns, _ = measure Steno.Linq in
      set r ("enumerable.run_ns_per_row." ^ s.Shape.name) (Sample.median ns))
    shapes

(* The partitioned filtered Average (the Agg_i/Agg* split of Fig. 12)
   taken apart: partitioning, per-partition runs and merge, against the
   sequential Native run. *)
let par_layers r eng ~seed ~rows =
  let rng = Random.State.make [| seed; 17 |] in
  let xs = Array.init rows (fun _ -> Random.State.float rng 1.0) in
  let sq =
    Query.of_array Ty.Float xs
    |> Query.where (fun x -> Expr.Infix.(x < Expr.float 0.9))
    |> Query.average
  in
  let expected = Reference.scalar sq in
  match Par.decompose sq with
  | None -> count false
  | Some (Par.Decomposed { source; decomp; _ }) ->
    let seq = Steno.Engine.prepare_scalar eng sq in
    let part = Sample.create () and run = Sample.create () and seq_t = Sample.create () in
    let words = Sample.create () in
    for i = 0 to 5 do
      let parts, p_ms = time (fun () -> Par.partition ~parts:Fixed.workers source) in
      let w0 = all_minor_words () in
      let got, r_ms =
        time (fun () -> Par.run_decomposed ~engine:eng ~workers:Fixed.workers decomp parts)
      in
      let w1 = all_minor_words () in
      let sgot, s_ms = time (fun () -> Steno.Prepared_scalar.run seq) in
      count (Shape.approx Ty.Float expected got && Shape.approx Ty.Float expected sgot);
      if i > 0 then begin
        Sample.add part p_ms;
        Sample.add run r_ms;
        Sample.add seq_t s_ms;
        Sample.add words ((w1 -. w0) /. float_of_int rows)
      end
    done;
    set r "par.partition_ms" (Sample.median part);
    set r "par.run_ms" (Sample.median run);
    set r "par.speedup" (Sample.median seq_t /. (Sample.median part +. Sample.median run));
    set r "par.alloc_words_per_row" (Sample.median words)

(* {1 A run} *)

let lib_lines () =
  let rec walk dir =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then acc + walk p
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then begin
          let ic = open_in p in
          let n = ref 0 in
          (try while true do ignore (input_line ic); incr n done with End_of_file -> ());
          close_in ic;
          acc + !n
        end
        else acc)
      0 (Sys.readdir dir)
  in
  try walk "lib" with Sys_error _ -> 0

(* The checkout the benchmark runs in need not be a git repository. *)
let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else begin
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    c
  end

(* Make [dir] this process's scratch directory: its stores, and the
   compiler's temporary files. *)
let use_scratch dir =
  Sys.mkdir dir 0o755;
  scratch := dir;
  let tmp = Filename.concat (Sys.getcwd ()) (Filename.concat dir "tmp") in
  Sys.mkdir tmp 0o755;
  Unix.putenv "TMPDIR" tmp;
  Filename.set_temp_dir_name tmp

(* {2 Several domains, in child processes}

   [Par] and the tiered engine start the domain pool, whose domains then
   live as long as their process and must take part in every minor
   collection.  So the partitioned runs and the server each run in a
   child forked while this process still has one domain, and this
   process keeps the one-domain phases to itself.  The three take
   turns, round by round: the host's speed changes from one second to
   the next, and so every metric's samples are spread over the whole
   run.  The server's child is forked before the fixed shapes' inputs
   exist, so that its collections do not trace them. *)

type command = Round of int | Finish

type reply = {
  c_attempted : int;
  c_failed : int;
  c_layers : (string * float) list;
  c_par : runs list;
  c_query : Sample.t;
  c_qps : float;
}

let send oc v =
  output_value oc v;
  flush oc

(* Fork a child that runs [start] (its set-up, returning its work for
   one round and its results), replies once set up, then once per round,
   and with its results after [Finish].  Returns, in this process, the
   functions to send it a command, receive its reply, and wait for it.
   The child leaves with [Unix._exit], so this process's exit handlers
   run only here. *)
let fork_child r ~name start =
  let c_in, p_out = Unix.pipe () and p_in, c_out = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close p_out;
    Unix.close p_in;
    let ic = Unix.in_channel_of_descr c_in and oc = Unix.out_channel_of_descr c_out in
    let body () =
      use_scratch (Filename.concat !scratch name);
      Atomic.set attempted 0;
      Atomic.set failed 0;
      Hashtbl.reset r.layers;
      let round, finish = start () in
      send oc ();
      let rec loop () =
        match (input_value ic : command) with
        | Round k ->
          round k;
          send oc ();
          loop ()
        | Finish ->
          let par, query, qps = finish () in
          send oc
            {
              c_attempted = Atomic.get attempted; c_failed = Atomic.get failed;
              c_layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.layers [];
              c_par = par; c_query = query; c_qps = qps;
            }
      in
      loop ()
    in
    let code =
      match body () with
      | () -> 0
      | exception e ->
        Printf.eprintf "perfbench: %s child failed: %s\n" name (Printexc.to_string e);
        3
    in
    flush_all ();
    Unix._exit code
  | pid ->
    Unix.close c_in;
    Unix.close c_out;
    let oc = Unix.out_channel_of_descr p_out and ic = Unix.in_channel_of_descr p_in in
    (* On every way out, the child sees its pipes closed and is waited
       for. *)
    let reaped = ref false in
    let reap () =
      if not !reaped then begin
        reaped := true;
        close_out_noerr oc;
        close_in_noerr ic;
        ignore (Unix.waitpid [] pid)
      end
    in
    at_exit reap;
    let receive () =
      match input_value ic with
      | v -> v
      | exception End_of_file ->
        reap ();
        die "the %s child ended early" name
    in
    (receive () : unit);
    send oc, receive, reap

(* The partitioned runs' child. *)
let par_child r w ~seed ~budget ~traced eng fixed () =
  let _, _, par_s, _ = w.shares in
  let par =
    List.filter_map
      (fun (s : Shape.t) -> Option.map (fun f -> s, f eng, Sample.create ()) s.Shape.par)
      fixed
  in
  (* The per-partition plans compile on first use. *)
  List.iter (fun (_, f, _) -> ignore (guarded (fun () -> count (f () ())))) par;
  let m_par = meter (par_s *. budget) in
  let round round = metered m_par ~round (fun () -> sweep (List.map (fun (_, f, t) -> f, t) par)) in
  let finish () =
    if traced then begin
      par_layers r eng ~seed ~rows:w.rows;
      match !Fixed.last_cluster with
      | Some c ->
        Dryad.reset_metrics c;
        let kmeans = List.find (fun (s : Shape.t) -> s.Shape.name = "kmeans") fixed in
        let iterations = 3 in
        for _ = 1 to iterations do
          ignore (guarded (fun () -> count ((Option.get kmeans.Shape.par) eng () ())))
        done;
        let m = Dryad.metrics c in
        set r "dryad.busy_ms" (m.Dryad.busy_ms /. float_of_int iterations);
        set r "dryad.exchanged" (float_of_int m.Dryad.exchanged /. float_of_int iterations)
      | None -> ()
    end;
    List.map (fun (s, _, t) -> runs s t) par, Sample.create (), 0.0
  in
  round, finish

(* The server's child. *)
let serve_child r w ~seed ~budget served () =
  let _, _, _, serve_s = w.shares in
  let sv = serve_start w ~seed served in
  let m_serve = meter (serve_s *. budget) in
  let round round =
    let allowed = m_serve.budget_ms *. float_of_int round /. float_of_int rounds in
    (* The serve meter also counts the wait for background compiles
       after each window. *)
    if allowed > m_serve.used_ms then begin
      let t0 = Sample.now_ms () in
      serve_window sv ~ms:(allowed -. m_serve.used_ms);
      m_serve.used_ms <- m_serve.used_ms +. (Sample.now_ms () -. t0)
    end
  in
  let finish () =
    serve_finish r sv;
    [], r.query, r.qps
  in
  round, finish

let run w ~seed ~seconds ~traced =
  let budget = 1000.0 *. float_of_int seconds in
  let cold_s, scan_s, _, _ = w.shares in
  let r =
    {
      setup_s = Sample.create (); cold = Sample.create (); restart = Sample.create ();
      scan = []; par = []; query = Sample.create (); qps = 0.0;
      layers = Hashtbl.create 128;
    }
  in
  (* The reference results are harness work, not set-up. *)
  let served = Fixed.shapes ~seed ~n:serve_rows in
  List.iter (fun (s : Shape.t) -> s.Shape.reference ()) served;
  let serve = fork_child r ~name:"serve" (serve_child r w ~seed ~budget served) in
  let fixed = Fixed.shapes ~seed ~n:w.rows in
  List.iter (fun (s : Shape.t) -> s.Shape.reference ()) fixed;
  Gc.compact ();
  (* Set-up: a fresh Native engine over an empty store prepares every
     fixed shape and runs it once, in CPU time.  Five times; the last
     one is kept. *)
  let last = ref None in
  for _ = 1 to 5 do
    let t0 = Sample.cpu_ms () in
    let eng = native_engine (fresh_store ()) in
    let prepared =
      List.filter_map (fun s -> Option.map (fun (p, _) -> s, p) (prepare_first eng s)) fixed
    in
    Sample.add r.setup_s ((Sample.cpu_ms () -. t0) /. 1000.0);
    last := Some (eng, prepared)
  done;
  let eng, prepared = Option.get !last in
  if traced then run_costs r eng fixed;
  let stream =
    let dir = fresh_store () in
    {
      st_gen = Gen.env ~seed ~stream:0; st_eng = native_engine dir; st_dir = dir;
      drawn = 0; fresh = []; first = [];
    }
  in
  let scan = List.filter_map scan_item prepared in
  let par = fork_child r ~name:"par" (par_child r w ~seed ~budget ~traced eng fixed) in
  let m_cold = meter (cold_s *. budget) and m_scan = meter (scan_s *. budget) in
  for round = 1 to rounds do
    metered m_cold ~round (fun () -> stream_shape r stream);
    restart_fresh r stream;
    metered m_scan ~round (fun () -> List.iter scan_once scan);
    List.iter
      (fun (to_child, from_child, _) ->
        to_child (Round round);
        (from_child () : unit))
      [ par; serve ]
  done;
  let finish (to_child, from_child, reap) =
    to_child Finish;
    let c : reply = from_child () in
    reap ();
    ignore (Atomic.fetch_and_add attempted c.c_attempted);
    ignore (Atomic.fetch_and_add failed c.c_failed);
    List.iter (fun (k, v) -> set r k v) c.c_layers;
    c
  in
  let par_reply = finish par in
  let serve_reply = finish serve in
  r.scan <- List.map (fun it -> runs it.sc_shape it.sc_t) scan;
  r.par <- par_reply.c_par;
  r.qps <- serve_reply.c_qps;
  let r = { r with query = serve_reply.c_query } in
  (* The stream's first shapes, taken apart layer by layer. *)
  if traced then traced_pass r (List.rev stream.first);
  r

let print_result r ~traced ~w ~seed =
  let heap_mb = float_of_int (Atomic.get heap_peak_words * (Sys.word_size / 8)) /. 1048576.0 in
  let geo samples = geomean (List.map rows_per_s samples) in
  List.iter
    (fun (phase, samples) ->
      List.iter
        (fun x ->
          Printf.printf "%s %-12s %10.2f ns/row (median of %d samples)\n" phase x.r_name
            (Sample.median x.times *. 1e6 /. float_of_int x.r_rows)
            (Sample.count x.times))
        samples)
    [ "scan", r.scan; "par", r.par ];
  let e2e =
    [
      "setup_s", Sample.median r.setup_s;
      "heap_peak_mb", heap_mb;
      "prepare_cold_ms.p50", Sample.quantile r.cold 0.5;
      "prepare_cold_ms.p90", Sample.quantile r.cold 0.9;
      "prepare_restart_ms.p50", Sample.quantile r.restart 0.5;
      "scan_rows_per_s", geo r.scan;
      "par_rows_per_s", geo r.par;
      "query_ms.p50", Sample.quantile r.query 0.5;
      "query_ms.p99", Sample.quantile r.query 0.99;
      "throughput_qps", r.qps;
    ]
  in
  let att = Atomic.get attempted and fl = Atomic.get failed in
  Printf.printf
    "{\"context\": {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"ocaml\": %S, \
     \"native_available\": %b, \"commit\": %S, \"lib_lines\": %d, \"error_rate\": %g, \
     \"samples\": {\"prepare_cold_ms\": %d, \"prepare_restart_ms\": %d, \"query_ms\": %d}}}\n"
    w.w_name seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (Steno.native_available ()) (commit ()) (lib_lines ())
    (float_of_int fl /. float_of_int (max 1 att))
    (Sample.count r.cold) (Sample.count r.restart) (Sample.count r.query);
  let metrics =
    if traced then
      List.map
        (fun (n, u, target) ->
          Printf.printf "layer %-40s -> %s\n" n target;
          n, u, Option.value ~default:0.0 (Hashtbl.find_opt r.layers n))
        per_layer
    else List.map2 (fun (n, u) (_, v) -> n, u, v) end_to_end e2e
  in
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (n, _, _) -> Printf.eprintf "perfbench: %s is not a finite number\n" n) bad;
  let fields =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
          (if Float.is_finite v then v else 0.0) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (fl = 0 && bad = []) att fl (String.concat ", " fields)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  Arg.parse
    [
      "--workload", Arg.Set_string workload, "NAME cold-shapes | hot-scan | serve-mix";
      "--seed", Arg.Set_int seed, "N input and query seed";
      "--seconds", Arg.Set_int seconds, "S measured time of one run";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics";
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if not (Steno.native_available ()) then
    die "no native compiler: the Native backend is unavailable, refusing to report Fused figures as Native";
  let root = ".perfbench" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  use_scratch dir;
  at_exit (fun () -> rm_rf dir);
  let traced = !trace = 1 in
  let r = run w ~seed:!seed ~seconds:!seconds ~traced in
  if traced then begin
    let path = Filename.concat root (Printf.sprintf "spans-%s-%d.jsonl" w.w_name !seed) in
    Sample.write_spans path (List.rev !tracers);
    Printf.printf "spans: %s\n" path
  end;
  print_result r ~traced ~w ~seed:!seed
