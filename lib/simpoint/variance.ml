type sweep_point = { k : int; avg_variance : float }

(* Cluster the projected slices at [k] and measure the spread inside
   each cluster around the mean of its members — not around the fitted
   centroids, which [Simpoints.cluster] fits on a subsample. *)
let at_k ~config ~k projected =
  let fit = Simpoints.cluster config ~k projected in
  let sums = Array.make_matrix fit.Kmeans.k (Array.length projected.(0)) 0.0 in
  Array.iteri
    (fun i j ->
      let s = sums.(j) in
      Array.iteri (fun x v -> s.(x) <- s.(x) +. v) projected.(i))
    fit.Kmeans.assignment;
  let centroids =
    Array.mapi
      (fun j s ->
        let n = fit.Kmeans.sizes.(j) in
        if n = 0 then s else Array.map (fun x -> x /. float_of_int n) s)
      sums
  in
  {
    k = fit.Kmeans.k;
    avg_variance =
      Sp_util.Stats.mean
        (Kmeans.within_cluster_variance { fit with Kmeans.centroids } projected);
  }

(* Project once for the whole sweep; each k is then an independent
   clustering problem, fanned out across the domain pool (input order
   is preserved). *)
let sweep ?(config = Simpoints.default_config) ~ks slices =
  match ks with
  | [] -> []
  | ks ->
      if Array.length slices = 0 then invalid_arg "Variance.sweep: no slices";
      let projected =
        Projection.project ~dim:config.Simpoints.proj_dim
          ~seed:config.Simpoints.seed slices
      in
      Sp_util.Pool.parallel_map ~jobs:config.Simpoints.jobs
        (fun k -> at_k ~config ~k projected)
        (Array.of_list ks)
      |> Array.to_list
