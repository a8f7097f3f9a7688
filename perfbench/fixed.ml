(* The fixed shapes: Fig. 13's Sum, SumSq, Cart and Group, a filtered
   Average, a Join, a GroupByAggregate, a filtered Count, OrderBy+Take,
   a Where/Select collection, and one Fig. 14 k-means iteration on
   Dryad — each over [n] source rows drawn from the seed.  There are 11,
   9 of them served: odd counts, so that the median of a mix of shapes
   falls inside one shape's samples, not in the gap between two. *)

module I = Expr.Infix

let workers = 2

let bins = 64

(* Fig. 13's histogram key: clamp (truncate (x * bins)) to [0, bins). *)
let bin_expr x =
  Expr.Prim2
    ( Prim.Max_int,
      Expr.int 0,
      Expr.Prim2
        ( Prim.Min_int,
          Expr.int (bins - 1),
          Expr.Prim1 (Prim.Truncate, I.(x *. Expr.float (float_of_int bins))) ) )

let par_scalar eng sq = Par.scalar_auto ~engine:eng ~workers sq

let par_array eng q = Par.to_array_auto ~engine:eng ~workers q

let par_sum_groups eng q = Par.group_aggregate ~engine:eng ~workers ~combine:( + ) q

(* The partitioned k-means cluster, kept for its [Dryad.metrics]. *)
let last_cluster : Dryad.cluster option ref = ref None

(* One k-means iteration (Fig. 14, user-defined distance) over [points]:
   sequentially on a one-worker cluster over one partition, and
   partitioned on a [workers]-worker cluster.  The reference result
   folds [Reference]'s evaluation of the assignment query over all
   points into the next centroids. *)
let kmeans ~rows points =
  let k = 8 in
  let distance = Kmeans.Udf in
  let centroids = Array.init k (fun j -> Array.copy points.(j * rows / k)) in
  let assign = Kmeans.assignment_query ~distance ~centroids points in
  let expected =
    lazy
    (let next = Array.map Array.copy centroids in
    let acc = Hashtbl.create k in
    List.iter
      (fun (j, (sums, count)) ->
        match Hashtbl.find_opt acc j with
        | None -> Hashtbl.replace acc j (Array.copy sums, count)
        | Some (s, c) ->
          Array.iteri (fun i x -> s.(i) <- s.(i) +. x) sums;
          Hashtbl.replace acc j (s, c + count))
      (Reference.to_list assign);
    Hashtbl.iter
      (fun j (sums, count) ->
        if count > 0 then
          next.(j) <- Array.map (fun s -> s /. float_of_int count) sums)
      acc;
    next)
  in
  let ok got = Shape.approx Ty.(Array (Array Float)) (Lazy.force expected) got in
  let iterate cluster ds ?backend () =
    let r = Kmeans.iterate cluster ?backend ~distance ~centroids ds in
    fun () -> ok r
  in
  let inner = Shape.coll ~serve:false "kmeans" ~rows assign in
  {
    inner with
    Shape.reference = (fun () -> ignore (Lazy.force expected));
    prepare =
      (fun ?backend eng ->
        let cluster = Dryad.create ~workers:1 ~engine:eng () in
        {
          Shape.run = iterate cluster (Dataset.of_array ~parts:1 points) ?backend;
          backend = (fun () -> Option.value backend ~default:Steno.Native);
          cache_hit = false;
        });
    par =
      Some
        (fun eng () ->
          let cluster =
            match !last_cluster with
            | Some c when Dryad.engine c == eng -> c
            | _ ->
              let c = Dryad.create ~workers ~engine:eng () in
              last_cluster := Some c;
              c
          in
          iterate cluster (Dataset.of_array ~parts:workers points) ());
  }

let shapes ~seed ~n =
  let rng = Random.State.make [| seed; n; 13 |] in
  let xs = Array.init n (fun _ -> Random.State.float rng 1.0) in
  let ints = Array.init n (fun _ -> Random.State.int rng 10_000) in
  let outer = max 1 (n / 1000) in
  let cart_xs = Array.init outer (fun _ -> Random.State.float rng 1.0) in
  let cart_ys = Array.init 1000 (fun _ -> Random.State.float rng 1.0) in
  let dim = Array.init 16 (fun i -> (16 * Random.State.int rng 100) + i) in
  (* OrderBy sorts its whole input and a k-means row costs k distance
     computations: both run over fewer rows, so that one round of the
     fixed shapes stays within about a second at 2M rows. *)
  let top_rows = max 1000 (n / 16) in
  let tops = Array.init top_rows (fun _ -> Random.State.float rng 1.0) in
  let dims = 8 in
  let npoints = max 64 (n / 100) in
  let points =
    Array.init npoints (fun _ ->
        Array.init dims (fun _ -> Random.State.float rng 100.0))
  in
  let floats = Query.of_array Ty.Float xs in
  let ints_q = Query.of_array Ty.Int ints in
  [
    Shape.scalar "sum" ~rows:n ~par:par_scalar (Query.sum_float floats);
    Shape.scalar "sumsq" ~rows:n ~par:par_scalar
      (floats |> Query.select (fun x -> I.(x *. x)) |> Query.sum_float);
    Shape.scalar "cart" ~rows:(outer * 1000) ~par:par_scalar
      (Query.of_array Ty.Float cart_xs
      |> Query.select_many (fun x ->
             Query.of_array Ty.Float cart_ys |> Query.select (fun y -> I.(x *. y)))
      |> Query.sum_float);
    Shape.coll "group" ~rows:n
      (floats
      |> Query.group_by bin_expr
      |> Query.select (fun g -> Expr.Pair (Expr.Fst g, Expr.Array_length (Expr.Snd g))));
    Shape.scalar "avg_filtered" ~rows:n ~par:par_scalar
      (floats |> Query.where (fun x -> I.(x < Expr.float 0.9)) |> Query.average);
    Shape.scalar "join" ~rows:n ~par:par_scalar
      (ints_q
      |> Query.join ~inner:(Query.of_array Ty.Int dim)
           ~outer_key:(fun x -> I.(x mod Expr.int 16))
           ~inner_key:(fun y -> I.(y mod Expr.int 16))
           ~result:(fun x y -> I.(x + y))
      |> Query.sum_int);
    Shape.coll "gba" ~rows:n ~par:par_sum_groups
      (ints_q
      |> Query.group_by_agg
           ~key:(fun x -> I.(x mod Expr.int 97))
           ~seed:(Expr.int 0)
           ~step:(fun s x -> I.(s + x)));
    Shape.scalar "count" ~rows:n ~par:par_scalar
      (ints_q |> Query.where (fun x -> I.(x mod Expr.int 7 = Expr.int 3)) |> Query.count);
    Shape.coll "top" ~rows:top_rows
      (Query.of_array Ty.Float tops |> Query.order_by ~order:Query.Descending (fun x -> x) |> Query.take 10);
    Shape.coll "sel" ~rows:n ~serve:false ~par:par_array
      (floats
      |> Query.where (fun x -> I.(x > Expr.float 0.5))
      |> Query.select (fun x -> I.((x *. Expr.float 2.0) +. Expr.float 1.0)));
    kmeans ~rows:npoints points;
  ]
