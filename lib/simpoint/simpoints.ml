type config = {
  max_k : int;
  proj_dim : int;
  bic_threshold : float;
  kmeans_iters : int;
  sample_cap : int;
  seed : int;
  jobs : int;
}

let default_config =
  {
    max_k = 35;
    proj_dim = Projection.default_dim;
    (* SimPoint 3.0 ships with 0.9; our scaled-down slices carry far less
       within-phase BBV noise than 30M-instruction slices, which keeps
       the BIC curve rising gently long after the true phase count, so
       the knee sits lower in the range.  0.7 reproduces the paper's
       Table II cluster counts across the suite. *)
    bic_threshold = 0.7;
    kmeans_iters = 50;
    sample_cap = 3000;
    seed = 20190101;
    jobs = 1;
  }

type point = {
  cluster : int;
  slice_index : int;
  start_icount : int;
  length : int;
  weight : float;
}

type t = {
  config : config;
  slice_len : int;
  num_slices : int;
  chosen_k : int;
  points : point array;
  assignment : int array;
  bic_curve : (int * float) list;
}

(* Exact integer arithmetic: i * n / cap for i < cap yields cap strictly
   increasing in-bounds indices whose last pick falls in the final stride
   [(cap-1) * n / cap, n).  The float-stride form this replaces could
   round two picks onto the same index and never reached the tail. *)
let subsample cap points =
  let n = Array.length points in
  if n <= cap then points else Array.init cap (fun i -> points.(i * n / cap))

(* Fit on the (sub)sample, then produce a full-set clustering result. *)
let cluster config ~k projected =
  let sample = subsample config.sample_cap projected in
  let fitted =
    Kmeans.fit ~max_iters:config.kmeans_iters ~seed:(config.seed + k)
      ~jobs:config.jobs ~k sample
  in
  if sample == projected then fitted
  else begin
    let assignment =
      Kmeans.assign ~jobs:config.jobs ~centroids:fitted.centroids projected
    in
    let sizes = Array.make fitted.k 0 in
    let distortion = ref 0.0 in
    Array.iteri
      (fun i j ->
        sizes.(j) <- sizes.(j) + 1;
        distortion :=
          !distortion +. Kmeans.sq_distance projected.(i) fitted.centroids.(j))
      assignment;
    { fitted with assignment; sizes; distortion = !distortion }
  end

let representatives (slices : Sp_pin.Bbv_tool.slice array) projected
    (r : Kmeans.result) =
  let n = Array.length projected in
  let best = Array.make r.k (-1) in
  let best_d = Array.make r.k infinity in
  for i = 0 to n - 1 do
    let j = r.assignment.(i) in
    let d = Kmeans.sq_distance projected.(i) r.centroids.(j) in
    if d < best_d.(j) then begin
      best_d.(j) <- d;
      best.(j) <- i
    end
  done;
  let nf = float_of_int n in
  let points = ref [] in
  for j = r.k - 1 downto 0 do
    if best.(j) >= 0 then begin
      let s = slices.(best.(j)) in
      points :=
        {
          cluster = j;
          slice_index = best.(j);
          start_icount = s.Sp_pin.Bbv_tool.start_icount;
          length = s.Sp_pin.Bbv_tool.length;
          weight = float_of_int r.sizes.(j) /. nf;
        }
        :: !points
    end
  done;
  Array.of_list !points

let build config ~slice_len slices projected result bic_curve =
  {
    config;
    slice_len;
    num_slices = Array.length slices;
    chosen_k = result.Kmeans.k;
    points = representatives slices projected result;
    assignment = result.Kmeans.assignment;
    bic_curve;
  }

let project_or ~config projected slices =
  match projected with
  | Some p -> p
  | None -> Projection.project ~dim:config.proj_dim ~seed:config.seed slices

let select_with_k ?(config = default_config) ?projected ~slice_len ~k slices =
  if Array.length slices = 0 then invalid_arg "Simpoints.select_with_k: no slices";
  let projected = project_or ~config projected slices in
  let result = cluster config ~k projected in
  let bic = Bic.score result projected in
  build config ~slice_len slices projected result [ (k, bic) ]

(* SimPoint 3.0's policy: score k=1 and k=maxK, then binary-search the
   smallest k whose BIC reaches threshold of the [low, high] range. *)
let select ?(config = default_config) ?projected ~slice_len slices =
  if Array.length slices = 0 then invalid_arg "Simpoints.select: no slices";
  let projected = project_or ~config projected slices in
  let max_k = min config.max_k (Array.length slices) in
  let cache = Hashtbl.create 16 in
  let compute k =
    let result = cluster config ~k projected in
    (result, Bic.score result projected)
  in
  (* [demanded] records the ks the sequential search logic actually
     asked for, as opposed to ks whose fits were merely precomputed
     speculatively.  The published BIC curve is built from the demanded
     set only, so selection output is bit-identical at every job
     count. *)
  let demanded = Hashtbl.create 16 in
  let eval k =
    Hashtbl.replace demanded k ();
    match Hashtbl.find_opt cache k with
    | Some v -> v
    | None ->
        let v = compute k in
        Hashtbl.add cache k v;
        v
  in
  (* Warm the cache for [ks] through the pool.  Each [compute] is
     deterministic in k alone, so precomputing a fit (whether it ends
     up demanded or not) changes nothing downstream. *)
  let warm ks =
    match
      List.sort_uniq compare
        (List.filter (fun k -> not (Hashtbl.mem cache k)) ks)
    with
    | [] -> ()
    | ks ->
        Sp_util.Pool.parallel_map ~jobs:config.jobs
          (fun k -> (k, compute k))
          (Array.of_list ks)
        |> Array.iter (fun (k, v) -> Hashtbl.replace cache k v)
  in
  (* The binary search's probes are data-dependent (each depends on the
     previous BIC), but its two anchors k=1 and k=max_k are
     independent: dispatch them through the pool. *)
  if config.jobs > 1 && max_k > 1 then warm [ 1; max_k ];
  let _, bic_lo = eval 1 in
  let _, bic_hi = eval max_k in
  let target = bic_lo +. (config.bic_threshold *. (bic_hi -. bic_lo)) in
  let rec search lo hi =
    (* invariant: bic(hi) >= target, lo < hi means candidates remain *)
    if lo >= hi then hi
    else begin
      let mid = (lo + hi) / 2 in
      (* Speculative probes: this round needs bic(mid), and the next
         round needs one of the two possible midpoints of the halved
         interval.  Fitting all three concurrently hides the next
         round's fit behind this one; the probe that goes unused only
         warmed the cache. *)
      if config.jobs > 1 then
        warm [ mid; (lo + mid) / 2; (mid + 1 + hi) / 2 ];
      let _, bic = eval mid in
      if bic >= target then search lo mid else search (mid + 1) hi
    end
  in
  let chosen = if bic_hi <= bic_lo then 1 else search 1 max_k in
  let result, _ = eval chosen in
  let curve =
    Hashtbl.fold
      (fun k () acc -> (k, snd (Hashtbl.find cache k)) :: acc)
      demanded []
    |> List.sort compare
  in
  build config ~slice_len slices projected result curve

let total_weight points = Array.fold_left (fun acc p -> acc +. p.weight) 0.0 points

let by_start points =
  let sorted = Array.copy points in
  Array.sort (fun a b -> compare a.start_icount b.start_icount) sorted;
  sorted

let reduce t ~coverage =
  let sorted = Array.copy t.points in
  Array.sort (fun a b -> compare b.weight a.weight) sorted;
  let acc = ref 0.0 in
  let keep = ref [] in
  (try
     Array.iter
       (fun p ->
         if !acc >= coverage then raise Exit;
         keep := p :: !keep;
         acc := !acc +. p.weight)
       sorted
   with Exit -> ());
  Array.of_list (List.rev !keep)

let pp_point ppf p =
  Format.fprintf ppf "cluster %d: slice %d @%d (+%d insns), weight %.4f"
    p.cluster p.slice_index p.start_icount p.length p.weight
