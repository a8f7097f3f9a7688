(* Differential testing: parallel scalar execution vs the Reference
   interpreter, across all three backends, on inputs chosen to expose
   partial-aggregation bugs — ties that span partition boundaries,
   empty and singleton partitions, lengths not divisible by the
   partition count, and a non-commutative (but associative) user
   combiner that detects any merge-order mistake. *)

module I = Expr.Infix

let ints xs = Query.of_array Ty.Int xs
let floats xs = Query.of_array Ty.Float xs

let engine_of backend =
  Steno.Engine.create { Steno.Engine.default_config with backend }

(* Every backend that can run on this host, so a codegen bug in one
   backend cannot hide behind the others. *)
let backends () =
  [ "linq", Steno.Linq; "fused", Steno.Fused ]
  @ (if Steno.native_available () then [ "native", Steno.Native ] else [])

let partitionings = [ 1, 1; 4, 5; 8, 3; 3, 8 ]

(* Run [sq] through Par.scalar_auto on every backend and partitioning
   and demand exact agreement with Reference. *)
let differential : type s. string -> (s -> s -> bool) -> s Query.sq -> unit =
 fun name eq sq ->
  let expected = try Ok (Reference.scalar sq) with e -> Error e in
  List.iter
    (fun (bname, backend) ->
      let engine = engine_of backend in
      List.iter
        (fun (workers, parts) ->
          let label = Printf.sprintf "%s [%s w=%d p=%d]" name bname workers parts in
          let got =
            try Ok (Par.scalar_auto ~engine ~workers ~parts sq)
            with e -> Error e
          in
          match expected, got with
          | Ok e, Ok g ->
            if not (eq e g) then Alcotest.failf "%s: diverged from Reference" label
          | Error a, Error b when a = b -> ()
          | Error _, Ok _ -> Alcotest.failf "%s: Reference raised, parallel did not" label
          | Ok _, Error e ->
            Alcotest.failf "%s: parallel raised %s" label (Printexc.to_string e)
          | Error _, Error e ->
            Alcotest.failf "%s: raised the wrong exception %s" label
              (Printexc.to_string e))
        partitionings)
    (backends ())

let deq a b = a = b
let feq a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* Min_by/Max_by must keep the leftmost element among key ties, even
   when the tied elements land in different partitions.  Values are all
   distinct so picking any other tied element is caught. *)
let test_tie_heavy_extrema () =
  let tie_heavy = Array.init 64 (fun i -> 100 + i) in
  let key x = I.(x mod Expr.int 3) in
  differential "min_by ties" deq (ints tie_heavy |> Query.min_by key);
  differential "max_by ties" deq (ints tie_heavy |> Query.max_by key);
  (* All keys equal: every partition's partial ties with every other. *)
  let all_tied = Array.init 17 (fun i -> 1000 + i) in
  differential "min_by all tied" deq
    (ints all_tied |> Query.min_by (fun _ -> Expr.int 0));
  differential "max_by all tied" deq
    (ints all_tied |> Query.max_by (fun _ -> Expr.int 0))

(* Empty and singleton sources under many workers: some partitions hold
   nothing, and the empty-input behaviour (raise vs identity) must match
   the sequential semantics exactly. *)
let test_degenerate_partitions () =
  let empty = [||] and one = [| 42 |] in
  differential "empty sum" deq (Query.sum_int (ints empty));
  differential "empty count" deq (Query.count (ints empty));
  differential "empty min" deq (Query.min_elt (ints empty));
  differential "empty first" deq (Query.first (ints empty));
  differential "empty average" feq (Query.average (floats [||]));
  differential "empty any" deq (Query.any (ints empty));
  differential "empty contains" deq (Query.contains (Expr.int 7) (ints empty));
  differential "empty for_all" deq
    (ints empty |> Query.for_all (fun x -> I.(x > Expr.int 0)));
  differential "singleton min" deq (Query.min_elt (ints one));
  differential "singleton first" deq (Query.first (ints one));
  differential "singleton last" deq (Query.last (ints one));
  differential "singleton average" feq (Query.average (floats [| 3.5 |]))

(* Average over lengths sharing no factor with the partition counts:
   the (sum, count) partials have unequal weights, so any merge that
   averages averages — instead of summing sums and counts — diverges. *)
let test_average_uneven_lengths () =
  List.iter
    (fun n ->
      let data = Array.init n (fun i -> float_of_int ((i * 31) mod 101) /. 7.0) in
      differential (Printf.sprintf "average n=%d" n) feq (Query.average (floats data));
      differential
        (Printf.sprintf "filtered average n=%d" n)
        feq
        (floats data
        |> Query.where (fun x -> I.(x < Expr.float 9.0))
        |> Query.average))
    [ 7; 13; 97; 101; 1000 ]

(* A user-declared aggregate whose combiner is associative but NOT
   commutative: 2x2 integer matrix product.  Any reordering or
   re-association mistake in the Agg* merge changes the product. *)
let test_noncommutative_user_aggregate () =
  let mat_mul ((a, b), (c, d)) ((e, f), (g, h)) =
    ( ((a * e) + (b * g), (a * f) + (b * h)),
      ((c * e) + (d * g), (c * f) + (d * h)) )
  in
  let identity = Expr.Pair (Expr.Pair (Expr.int 1, Expr.int 0),
                            Expr.Pair (Expr.int 0, Expr.int 1))
  in
  (* acc * [[x,1],[1,0]] — the continued-fraction matrices, which do
     not commute with each other for distinct x. *)
  let step acc x =
    let a = Expr.Fst (Expr.Fst acc) and b = Expr.Snd (Expr.Fst acc) in
    let c = Expr.Fst (Expr.Snd acc) and d = Expr.Snd (Expr.Snd acc) in
    Expr.Pair
      ( Expr.Pair (I.((a * x) + b), a),
        Expr.Pair (I.((c * x) + d), c) )
  in
  let data = Array.init 48 (fun i -> (i * 5) mod 3) in
  let sq =
    ints data |> Query.aggregate ~combine:mat_mul ~seed:identity ~step
  in
  differential "matrix product" deq sq;
  (* The same combiner over a filtered homomorphic prefix. *)
  let filtered =
    ints data
    |> Query.where (fun x -> I.(x < Expr.int 2))
    |> Query.aggregate ~combine:mat_mul ~seed:identity ~step
  in
  differential "filtered matrix product" deq filtered

(* First/Last across partitions where the interesting element sits at a
   partition boundary after filtering. *)
let test_positional_scalars () =
  let data = Array.init 50 (fun i -> i) in
  let filtered f = ints data |> Query.where f in
  differential "first after filter" deq
    (Query.first (filtered (fun x -> I.(x mod Expr.int 13 = Expr.int 12))));
  differential "last after filter" deq
    (Query.last (filtered (fun x -> I.(x mod Expr.int 13 = Expr.int 12))));
  differential "first survivor in last partition" deq
    (Query.first (filtered (fun x -> I.(x > Expr.int 47))));
  differential "last survivor in first partition" deq
    (Query.last (filtered (fun x -> I.(x < Expr.int 2))))

(* Short-circuiting quantifiers: cancellation must never change the
   answer, whichever partition would have produced it. *)
let test_quantifiers () =
  let data = Array.init 200 (fun i -> i) in
  differential "contains hit in last partition" deq
    (ints data |> Query.contains (Expr.int 199));
  differential "contains miss" deq (ints data |> Query.contains (Expr.int 777));
  differential "exists hit early" deq
    (ints data |> Query.exists (fun x -> I.(x = Expr.int 0)));
  differential "for_all violated mid-stream" deq
    (ints data |> Query.for_all (fun x -> I.(x <> Expr.int 101)));
  differential "for_all holds" deq
    (ints data |> Query.for_all (fun x -> I.(x < Expr.int 1000)))

(* Partitioned GroupBy-Aggregate vs the Reference interpreter on every
   backend: per-key sums with keys interleaved across partitions must
   come back in global first-appearance order. *)
let test_group_aggregate_diff () =
  let data = Array.init 120 (fun i -> (i * 7) mod 11) in
  let q =
    ints data
    |> Query.group_by_agg
         ~key:(fun x -> I.(x mod Expr.int 4))
         ~seed:(Expr.int 0)
         ~step:(fun acc x -> I.(acc + x))
  in
  let expected = Reference.to_list q in
  List.iter
    (fun (bname, backend) ->
      let engine = engine_of backend in
      List.iter
        (fun (workers, parts) ->
          let got =
            Array.to_list
              (Par.group_aggregate ~engine ~workers ~parts ~combine:( + ) q)
          in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "group_agg [%s w=%d p=%d]" bname workers parts)
            expected got)
        partitionings)
    (backends ())

(* Views at their edges: every length in [view_lengths] under every
   partition count from 1 to 8, on every backend, for the three auto
   helpers — catching off-by-one bounds where one view ends and the next
   begins, and a partition count not capped at the row count. *)
let view_lengths = [ 0; 1; 2; 3; 7; 1000; 1001 ]

let prop_views_match_reference =
  let engines = lazy (List.map (fun (_, b) -> engine_of b) (backends ())) in
  QCheck.Test.make ~name:"views at partition edges = Reference" ~count:60
    QCheck.(triple (oneofl view_lengths) (int_range 1 8) small_nat)
    (fun (n, parts, salt) ->
      let data = Array.init n (fun i -> ((i * 7919) + salt) mod 1009) in
      let q =
        ints data
        |> Query.where (fun x -> I.(x mod Expr.int 3 <> Expr.int 0))
        |> Query.select (fun x -> I.(x * Expr.int 2))
      in
      let sum = Query.sum_int q in
      let avg = Query.average (floats (Array.map float_of_int data)) in
      let groups =
        ints data
        |> Query.group_by_agg
             ~key:(fun x -> I.(x mod Expr.int 5))
             ~seed:(Expr.int 0)
             ~step:(fun acc x -> I.(acc + x))
      in
      let avg_of run = try Some (run avg) with Iterator.No_such_element -> None in
      let same_avg a b =
        match a, b with
        | Some a, Some b -> feq a b
        | None, None -> true
        | Some _, None | None, Some _ -> false
      in
      Array.length (Par.partition ~parts data) = max 1 (min parts n)
      && List.for_all
           (fun engine ->
             let workers = 3 in
             Par.scalar_auto ~engine ~workers ~parts sum = Reference.scalar sum
             && same_avg
                  (avg_of (fun sq -> Par.scalar_auto ~engine ~workers ~parts sq))
                  (avg_of Reference.scalar)
             && Par.to_array_auto ~engine ~workers ~parts q
                = Array.of_list (Reference.to_list q)
             && Par.group_aggregate ~engine ~workers ~parts ~combine:( + ) groups
                = Array.of_list (Reference.to_list groups))
           (Lazy.force engines))

let () =
  Alcotest.run "par-diff"
    [
      ( "scalars",
        [
          Alcotest.test_case "tie-heavy extrema" `Quick test_tie_heavy_extrema;
          Alcotest.test_case "degenerate partitions" `Quick
            test_degenerate_partitions;
          Alcotest.test_case "uneven average" `Quick test_average_uneven_lengths;
          Alcotest.test_case "non-commutative combiner" `Quick
            test_noncommutative_user_aggregate;
          Alcotest.test_case "positional" `Quick test_positional_scalars;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "group aggregate" `Quick test_group_aggregate_diff;
        ] );
      "views", [ QCheck_alcotest.to_alcotest prop_views_match_reference ];
    ]
