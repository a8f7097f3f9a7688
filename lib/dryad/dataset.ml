type 'a t = { parts : 'a array array }

let of_partitions parts = { parts }

let of_array ~parts arr = { parts = Array.map Par.materialize (Par.partition ~parts arr) }

let generate ~parts ~per_partition f =
  {
    parts =
      Array.init parts (fun p -> Array.init per_partition (fun i -> f ~part:p i));
  }

let partitions t = t.parts

let num_partitions t = Array.length t.parts

let total_length t = Array.fold_left (fun n p -> n + Array.length p) 0 t.parts

let collect t = Array.concat (Array.to_list t.parts)
