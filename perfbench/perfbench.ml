(* Benchmark entry point: one workload, one seed, one run.

     perfbench.exe --workload ruleset-cold --seed 1 --seconds 10 --trace 0

   Prints progress lines, then as its last line one JSON object with
   the keys correct, attempted, failed and metrics. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the per-layer ones,
   and the spans are written to .perfbench/spans-<workload>-<seed>.tsv.
   Every run prints every metric of its kind; a layer the workload does
   not reach reports 0. Run it from the repository root
   (perfbench/run.py builds and runs it). *)

let workloads = [ "ruleset-cold"; "policy-ext" ]

let end_to_end =
  [ ("setup_s", "s"); ("scan_mb_s", "MB/s"); ("dsa_cycles_per_kib", "cycles/KiB");
    ("isa_words", "words"); ("success_ratio", "ratio"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("frontend.parse_ms", "ms"); ("analysis.lint_ms", "ms");
    ("analysis.fragments_ms", "ms"); ("ir.opt_ms", "ms"); ("ir.lower_ms", "ms");
    ("ir.elim_ms", "ms"); ("backend.emit_ms", "ms"); ("isa.verify_ms", "ms");
    ("arch.plan_build_ms", "ms"); ("arch.overlay_family_ms", "ms");
    ("prefilter.analyze_ms", "ms"); ("derivative.build_ms", "ms");
    ("prefilter.ac_build_ms", "ms"); ("compiler.combined_build_ms", "ms");
    ("prefilter.ac_ns_per_byte", "ns/B"); ("prefilter.ac_states", "count");
    ("prefilter.ac_occurrences", "count");
    ("compiler.combined_sweep_ns_per_byte", "ns/B");
    ("compiler.combined_sweep_nodfa_ns_per_byte", "ns/B");
    ("compiler.combined_dispatch_candidates", "count");
    ("compiler.combined_ac_candidates", "count");
    ("compiler.combined_product_threads", "count");
    ("compiler.combined_product_states", "count");
    ("compiler.ruleset_post_sweep_ns_per_byte", "ns/B");
    ("compiler.ruleset_minor_words_per_byte", "words/B");
    ("compiler.ruleset_call_fixed_ms", "ms");
    ("arch.attempts", "count"); ("arch.attempt_yield", "ratio");
    ("arch.pruned_share", "ratio"); ("arch.overlay_hit_ratio", "ratio");
    ("arch.overlay_states_built", "count"); ("arch.overlay_flushes", "count");
    ("arch.overlay_bails", "count");
    ("derivative.ns_per_byte", "ns/B"); ("derivative.states", "count");
    ("derivative.minor_words_per_byte", "words/B");
    ("arch.single_prefilter_ns_per_byte", "ns/B");
    ("arch.single_dense_ns_per_byte", "ns/B");
    ("server.protocol_decode_us", "us"); ("server.protocol_encode_us", "us");
    ("server.service_scan_ms", "ms"); ("server.service_ruleset_ms", "ms");
    ("server.transport_queue_ms_p50", "ms"); ("exec.cache_hit_ratio", "ratio");
    ("server.shed", "count"); ("server.deadline_missed", "count");
    ("gen.late_ms_p99", "ms");
    ("floor.table_ns_per_byte", "ns/B"); ("floor.memchr_ns_per_byte", "ns/B");
    ("trace.overhead_share", "ratio"); ("trace.unattributed_share", "ratio") ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !seed, !seconds, !trace with
  | Some seed, Some seconds, Some ((0 | 1) as trace)
    when List.mem !workload workloads && seconds > 0.0 ->
    (!workload, seed, seconds, trace = 1)
  | _ -> usage ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let work_dir = ".perfbench"

let () =
  let workload, seed, seconds, trace = parse_args () in
  let cache_dir = Filename.concat work_dir "cache" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ work_dir; cache_dir ];
  let spans_path =
    Filename.concat work_dir (Printf.sprintf "spans-%s-%d.tsv" workload seed)
  in
  let sp = if workload = "ruleset-cold" then Library.cold else Library.policy in
  let values, attempted, failed =
    if not trace then Library.run_e2e ~cache_dir sp ~seed ~seconds
    else if sp == Library.cold then
      (* the server layers have no library workload of their own: the
         cold traced run also drives the daemon *)
      let values, attempted, failed = Library.run_traced ~spans_path sp ~seed in
      let server, s_attempted, s_failed =
        Serve.run_traced ~work_dir
          ~spans_path:(Filename.concat work_dir (Printf.sprintf "spans-serve-%d.tsv" seed))
          ~seed
      in
      (values @ server, attempted + s_attempted, failed + s_failed)
    else Library.run_traced ~spans_path sp ~seed
  in
  let catalog = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
         (name, Option.value ~default:0.0 (List.assoc_opt name values), unit))
      catalog
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number (if Float.is_finite v then v else 0.0)) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && finite) attempted failed body
