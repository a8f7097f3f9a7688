(* A benchmark shape: one query, its inputs already captured, and the
   result [Reference] gives for it, computed on the first check (forcing
   is not domain-safe: a shape checked from two domains must have been
   checked once before).

   Every way the benchmark executes a shape returns [true] only when the
   result equals the reference result: exactly, except that floats may
   differ by a relative [rel_tol] (partitioned runs reassociate float
   sums). *)

let rel_tol = 1e-9

let rec approx : type a. a Ty.t -> a -> a -> bool =
 fun ty a b ->
  match ty with
  | Ty.Float ->
    a = b
    || Float.abs (a -. b) <= rel_tol *. Float.max (Float.abs a) (Float.abs b)
    || (Float.is_nan a && Float.is_nan b)
  | Ty.Pair (x, y) -> approx x (fst a) (fst b) && approx y (snd a) (snd b)
  | Ty.Triple (x, y, z) ->
    let a1, a2, a3 = a and b1, b2, b3 = b in
    approx x a1 b1 && approx y a2 b2 && approx z a3 b3
  | Ty.Array t -> Array.length a = Array.length b && Array.for_all2 (approx t) a b
  | Ty.List t -> List.length a = List.length b && List.for_all2 (approx t) a b
  | Ty.Option t -> (
    match a, b with
    | Some a, Some b -> approx t a b
    | None, None -> true
    | _ -> false)
  | Ty.Func _ -> false
  | Ty.Unit | Ty.Bool | Ty.Int | Ty.String -> a = b

(* A prepared shape: [run] executes once and returns the check of the
   result, so that timing can stop before the comparison. *)
type prepared = {
  run : unit -> unit -> bool;
  backend : unit -> Steno.backend;
  cache_hit : bool;
}

(* What the layer-by-layer pipeline counted, summed over shapes. *)
type counts = {
  mutable rules : int;
  mutable obligations : int;
  mutable source_bytes : int;
  mutable finds : int;
  mutable hits : int;
}

let counts () = { rules = 0; obligations = 0; source_bytes = 0; finds = 0; hits = 0 }

type t = {
  name : string;
  rows : int;  (** rows one run reads, the divisor of per-row figures *)
  prepare : ?backend:Steno.backend -> Steno.Engine.t -> prepared;
  session_prepare : (Steno.Session.t -> prepared) option;
      (** [None] for shapes that are not served (k-means). *)
  par : (Steno.Engine.t -> unit -> unit -> bool) option;
      (** A partitioned run on 2 workers, returning its check; [None]
          when the shape is not homomorphic. *)
  reference : unit -> unit;  (** compute the reference result now *)
  pipeline :
    Sample.tracer -> qid:int -> parent:int -> Pcache.t -> counts -> bool;
      (** The Native prepare path, one public layer function at a time,
          each call under its own span; then one run, checked. *)
}

(* The typed front half of the prepare path, for collection and scalar
   queries alike. *)
type 'q front = {
  lint : 'q -> Check.diagnostic list;
  optimize : 'q -> 'q * Opt.event list;
  validate :
    before:'q -> after:'q -> Opt.event list -> Check.Equiv.obligation list;
  canon : 'q -> Quil.chain;  (** [Specialize] then [Canon.of_specialized] *)
}

(* The PDA diagnostics the engine's lint adds for queries inside the
   QUIL fragment. *)
let chain_diags canon x =
  match canon x with
  | exception Canon.Unsupported _ -> []
  | c -> ( match Check.verify c with Ok () -> [] | Error m -> [ Check.malformed m ])

let coll_front : 'a Query.t front =
  {
    lint = (fun q -> chain_diags Canon.of_query q @ Check.query q);
    optimize = (fun q -> Opt.query_ev q);
    validate = (fun ~before ~after evs -> Check.Equiv.validate_query ~before ~after evs);
    canon = (fun q -> Canon.of_specialized (Specialize.query q));
  }

let scalar_front : 's Query.sq front =
  {
    lint = (fun sq -> chain_diags Canon.of_scalar sq @ Check.scalar sq);
    optimize = (fun sq -> Opt.scalar_ev sq);
    validate = (fun ~before ~after evs -> Check.Equiv.validate_scalar ~before ~after evs);
    canon = (fun sq -> Canon.of_specialized_scalar (Specialize.scalar sq));
  }

let load_exn = function
  | Ok p -> p
  | Error e -> failwith ("perfbench: " ^ Dynload.error_message e)

(* The same sequence of layer calls [Steno.Engine.prepare] makes for a
   Native preparation with optimization on, a disk cache and no
   profiling: lint, AST rewrite + validation, canonicalization, chain
   rewrite + validation, code generation, then the persistent store or
   the compiler, dynlink, environment binding and one run. *)
let pipeline front q ~check tr ~qid ~parent pc (c : counts) =
  let sp name f = Sample.span tr ~qid ~parent name (fun _ -> f ()) in
  ignore (sp "check.lint" (fun () -> front.lint q));
  let q', events = sp "opt.optimize" (fun () -> front.optimize q) in
  c.rules <- c.rules + List.length events;
  let q =
    if events = [] then q
    else begin
      let obl = sp "check.verify" (fun () -> front.validate ~before:q ~after:q' events) in
      c.obligations <- c.obligations + List.length obl;
      if Check.Equiv.accepted obl then q' else q
    end
  in
  let chain = sp "quil.canon" (fun () -> front.canon q) in
  let chain', cevents = sp "opt.optimize" (fun () -> Opt.chain_ev chain) in
  c.rules <- c.rules + List.length cevents;
  let chain =
    if cevents = [] then chain
    else begin
      let obl =
        sp "check.verify" (fun () ->
            Check.Equiv.validate_chain ~before:chain ~after:chain' cevents)
      in
      c.obligations <- c.obligations + List.length obl;
      if Check.Equiv.accepted obl then chain' else chain
    end
  in
  sp "check.lint" (fun () -> Check.assert_well_formed chain);
  let out = sp "codegen.generate" (fun () -> Codegen.generate chain) in
  c.source_bytes <- c.source_bytes + String.length out.Codegen.source;
  let key = "P0:O1:" ^ out.Codegen.source in
  c.finds <- c.finds + 1;
  let plugin =
    match sp "pcache.find" (fun () -> Pcache.find pc ~key) with
    | Some path ->
      c.hits <- c.hits + 1;
      load_exn (sp "dynload.load" (fun () -> Dynload.load_file ~path ()))
    | None ->
      let a =
        load_exn
          (sp "dynload.compile" (fun () ->
               Dynload.compile_artifact ~source:out.Codegen.source ()))
      in
      let p =
        load_exn (sp "dynload.load" (fun () -> Dynload.load_file ~path:a.Dynload.a_cmxs ()))
      in
      ignore (sp "pcache.store" (fun () -> Pcache.store pc ~key ~cmxs:a.Dynload.a_cmxs));
      Dynload.remove_artifact a;
      p
  in
  let env = sp "codegen.bind" (fun () -> Expr.Capture_table.to_env out.Codegen.table) in
  check (sp "codegen.run" (fun () -> plugin.Dynload.run env))

let coll ?par ?(serve = true) name ~rows (q : 'a Query.t) =
  let ty = Query.elem_ty q in
  let expected = lazy (Array.of_list (Reference.to_list q)) in
  let ok got = approx (Ty.Array ty) (Lazy.force expected) got in
  let wrap p =
    {
      run =
        (fun () ->
          let r = Steno.Prepared.run p in
          fun () -> ok r);
      backend = (fun () -> Steno.Prepared.backend_used p);
      cache_hit = (Steno.Prepared.compile_info p).Steno.cache_hit;
    }
  in
  {
    name;
    rows;
    prepare = (fun ?backend eng -> wrap (Steno.Engine.prepare ?backend eng q));
    session_prepare =
      (if serve then Some (fun s -> wrap (Steno.Session.prepare s q)) else None);
    par =
      Option.map
        (fun f eng () ->
          let r = f eng q in
          fun () -> ok r)
        par;
    reference = (fun () -> ignore (Lazy.force expected));
    pipeline = pipeline coll_front q ~check:(fun r -> ok (Obj.obj r));
  }

let scalar ?par ?(serve = true) name ~rows (sq : 's Query.sq) =
  let ty = Query.scalar_ty sq in
  let expected = lazy (Reference.scalar sq) in
  let ok got = approx ty (Lazy.force expected) got in
  let wrap p =
    {
      run =
        (fun () ->
          let r = Steno.Prepared_scalar.run p in
          fun () -> ok r);
      backend = (fun () -> Steno.Prepared_scalar.backend_used p);
      cache_hit = (Steno.Prepared_scalar.compile_info p).Steno.cache_hit;
    }
  in
  {
    name;
    rows;
    prepare = (fun ?backend eng -> wrap (Steno.Engine.prepare_scalar ?backend eng sq));
    session_prepare =
      (if serve then Some (fun s -> wrap (Steno.Session.prepare_scalar s sq))
       else None);
    par =
      Option.map
        (fun f eng () ->
          let r = f eng sq in
          fun () -> ok r)
        par;
    reference = (fun () -> ignore (Lazy.force expected));
    pipeline = pipeline scalar_front sq ~check:(fun r -> ok (Obj.obj r));
  }
