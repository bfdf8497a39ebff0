(* The cold-suite and warm-suite workloads: the whole pipeline over the
   seeded subset at --jobs 1, one benchmark after another, as
   [specrepro suite] runs it. *)

module Pipeline = Specrepro.Pipeline

type setup = {
  specs : Sp_workloads.Benchspec.t list;
  reference : string array;  (** stable fingerprint per benchmark *)
  accuracy : Summary.accuracy;
  cache_dir : string option;  (** the filled caches warm passes read *)
}

let clear_mem () =
  Sp_pinball.Artifact_cache.clear_mem ();
  Sp_pinball.Profile_store.clear_mem ()

(* The reference outputs.  A cold-suite reference runs without caches; a
   warm-suite one fills the profile and pinball caches as it goes, so
   warm passes are compared with results computed from scratch. *)
let setup ~work ~warm seed =
  let specs = Plan.subset seed in
  let cache_dir =
    if warm then Some (Summary.fresh_dir (Filename.concat work "cache"))
    else None
  in
  clear_mem ();
  let options = { Plan.options with Pipeline.profile_cache = cache_dir } in
  let results = List.map (Pipeline.run_benchmark ~options) specs in
  {
    specs;
    reference = Array.of_list (List.map Summary.fingerprint results);
    accuracy = Summary.accuracy results;
    cache_dir;
  }

let run_job options spec =
  let t0 = Summary.now () in
  match Pipeline.run_benchmark ~options spec with
  | r -> Ok (Summary.now () -. t0, r)
  | exception e -> Error (Printexc.to_string e)

(* One pass.  Cold passes start from an empty cache directory and store
   every artifact; warm passes read the filled caches from disk (the
   in-memory layer is dropped first). *)
let pass ~work ~index setup =
  let dir =
    match setup.cache_dir with
    | Some dir -> dir
    | None ->
        Summary.fresh_dir (Filename.concat work (Printf.sprintf "cold-%d" index))
  in
  clear_mem ();
  let options = { Plan.options with Pipeline.profile_cache = Some dir } in
  let t0 = Summary.now () in
  let outcomes, counts =
    Summary.counting Summary.count_names (fun () ->
        List.map (run_job options) setup.specs)
  in
  let seconds = Summary.now () -. t0 in
  if setup.cache_dir = None then Summary.rm_rf dir;
  let ok =
    List.concat
      (List.mapi
         (fun i outcome ->
           match outcome with
           | Ok (s, r) when Summary.fingerprint r = setup.reference.(i) -> [ (s, r) ]
           | Ok (_, r) ->
               Printf.eprintf "perfbench: %s output differs from the reference\n%!"
                 r.Pipeline.spec.Sp_workloads.Benchspec.name;
               []
           | Error msg ->
               Printf.eprintf "perfbench: benchmark failed: %s\n%!" msg;
               [])
         outcomes)
  in
  let results = List.map snd ok in
  let attempted = List.length setup.specs in
  {
    Summary.seconds;
    job_s = List.map fst ok;
    bench_s = List.map (fun r -> r.Pipeline.wall_seconds) results;
    stages =
      List.fold_left
        (fun acc r ->
          Summary.add_stages acc
            (List.map
               (fun (t : Pipeline.stage_timing) -> (t.stage, t.seconds))
               r.Pipeline.report.Pipeline.stages))
        [] results;
    counts;
    attempted;
    failed = attempted - List.length ok;
    metrics_mismatch = 0;
    accuracy =
      (if List.length ok = attempted then Some (Summary.accuracy results) else None);
  }
