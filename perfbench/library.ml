(* The two workloads: ruleset-cold and policy-ext. Each drives [Ruleset.compile] / [Ruleset.scan] from the
   outside. The untraced run reports the end-to-end metrics; the traced
   run replays the same work stage by stage with spans around each
   layer's public functions and reports the per-layer metrics. *)

module Ast = Alveare_frontend.Ast
module Sem = Alveare_engine.Semantics
module Rng = Alveare_workloads.Rng
module Compile = Alveare_compiler.Compile
module Ruleset = Alveare_compiler.Ruleset
module Combined = Alveare_compiler.Combined
module Core = Alveare_arch.Core
module Plan = Alveare_arch.Plan
module Dfa = Alveare_arch.Dfa_overlay
module Ac = Alveare_prefilter.Ac
module Pf = Alveare_prefilter.Prefilter
module Deriv = Alveare_derivative.Engine
module Multicore = Alveare_multicore.Multicore

type spec = {
  name : string;
  rules : (string * string) list;
  extended : bool;
  compiles_per_request : int;
      (** fresh compiles timed for setup_s before each request, about
          a tenth of a request's scan time or more *)
  requests : Rng.t -> (int * Ast.t) list -> Gen.request array;
      (** the request set, from the workload seed and the rules'
          source ASTs (index into the rule array, AST) *)
}

(* 4 x 1 MiB of bytes outside every first set and literal; one witness
   of a random rule every ~32 KiB keeps real hits in the check. *)
let cold =
  { name = "ruleset-cold";
    rules = Gen.sampler_specs ();
    extended = false;
    compiles_per_request = 1;
    requests =
      (fun rng asts ->
         Array.init 4 (fun _ ->
             Gen.request rng ~size:(1 lsl 20) ~background:Gen.cold_char
               ~every:32768 asts)) }

(* 4 x 16 KiB slices of policy background, a witness every ~2 KiB. *)
let policy =
  { name = "policy-ext";
    rules = Gen.policy_specs ();
    extended = true;
    compiles_per_request = 12;
    requests =
      (fun rng asts ->
         Array.init 4 (fun _ ->
             Gen.request rng ~size:16384
               ~background:Alveare_workloads.Policy.background ~every:2048
               asts)) }

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fresh_compile sp =
  Ruleset.compile_exn ~extended:sp.extended ~cache:(Compile.create_cache ())
    sp.rules

let source_asts sp =
  List.mapi
    (fun i (_, p) -> (i, Alveare_frontend.Parser.parse ~extended:sp.extended p))
    sp.rules

let workload_rng sp seed =
  Rng.create ((seed * 1_000_003) + Hashtbl.hash sp.name)

let isa_backed (r : Ruleset.compiled_rule) =
  match r.Ruleset.compiled.Compile.backend with
  | Compile.Derivative _ -> false
  | Compile.Isa | Compile.Isa_lowered -> true

let isa_words rs =
  Array.fold_left
    (fun acc r ->
       if isa_backed r then
         acc + Alveare_isa.Program.length r.Ruleset.compiled.Compile.program
       else acc)
    0 rs.Ruleset.rules

let tagged_hits (rep : Ruleset.report) =
  List.map (fun (h : Ruleset.hit) -> (h.Ruleset.hit_rule.Ruleset.id, h.Ruleset.span))
    rep.Ruleset.hits

let spans_of_rule hits id =
  List.filter_map (fun (r, s) -> if r = id then Some s else None) hits

(* The program never sees more than these bytes: a pure cold block must
   start no attempt at all, or the workload is not what it claims. *)
let check_cold_shape rs =
  let block = String.init 65536 (fun i -> Gen.cold_bytes.[i mod String.length Gen.cold_bytes]) in
  (Ruleset.scan rs block).Ruleset.total_attempts = 0

(* Peak resident memory of this process, in MB. *)
let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* --- Output checks ------------------------------------------------------ *)

(* The oracle's spans for every (request, rule), cached on disk by the
   digest of this executable (so a changed oracle or engine recomputes
   them), the rules and the request, since runs of one seed scan the
   same inputs. *)
let oracle_id = lazy (Digest.file Sys.executable_name)

let oracle_spans ~cache_dir sp (req : Gen.request) asts =
  let key =
    Digest.to_hex
      (Digest.string
         (Lazy.force oracle_id ^ String.concat "\000" (List.map snd sp.rules)
          ^ "\001" ^ req.Gen.data))
  in
  let path = Filename.concat cache_dir ("oracle-" ^ key) in
  match open_in_bin path with
  | ic ->
    let (v : Sem.span list array) =
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Marshal.from_channel ic)
    in
    v
  | exception Sys_error _ ->
    let v =
      Array.of_list (List.map (fun (_, ast) -> Oracle.find_all ast req.Gen.data) asts)
    in
    let tmp = path ^ ".tmp" ^ string_of_int (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    Marshal.to_channel oc v [];
    close_out oc;
    Sys.rename tmp path;
    v

(* Per request: does any rule report wrong spans?
   Plain rules: equal to the oracle. Extended rules: every span in the
   rule's language. Both: every planted witness hit. *)
let check ~cache_dir sp rs asts (reqs : Gen.request array) hits =
  let rules = rs.Ruleset.rules in
  Array.mapi
    (fun k req ->
       let bad = ref 0 in
       let got = hits.(k) in
       let expected =
         if sp.extended then None else Some (oracle_spans ~cache_dir sp req asts)
       in
       List.iter
         (fun (i, ast) ->
            let id = rules.(i).Ruleset.rule.Ruleset.id in
            let mine = spans_of_rule got id in
            let ok =
              match expected with
              | Some e -> mine = e.(i)
              | None -> List.for_all (Oracle.accepts ast req.Gen.data) mine
            in
            let planted =
              List.for_all
                (fun (p : Gen.plant) ->
                   p.Gen.rule <> i
                   || Oracle.witness_hit mine ~pos:p.Gen.pos
                        ~len:(String.length p.Gen.witness))
                req.Gen.plants
            in
            if not (ok && planted) then begin
              incr bad;
              Printf.eprintf "check: %s request %d rule %s wrong\n%!" sp.name k
                rules.(i).Ruleset.rule.Ruleset.tag
            end)
         asts;
       !bad > 0)
    reqs

(* --- Untraced run: end-to-end metrics ---------------------------------- *)

let run_e2e ~cache_dir sp ~seed ~seconds =
  let rs = fresh_compile sp in
  if sp.name = cold.name && not (check_cold_shape rs) then
    failwith "ruleset-cold: background bytes start attempts";
  let asts = source_asts sp in
  let reqs = sp.requests (workload_rng sp seed) asts in
  let pass_bytes =
    Array.fold_left (fun acc r -> acc + String.length r.Gen.data) 0 reqs
  in
  (* Whole passes over the request set until [seconds] have elapsed,
     each request after [compiles_per_request] timed fresh-cache
     compiles, so that setup_s and scan_mb_s sample the same stretch of
     time: a shared host's speed can drift over seconds. Every compile
     and every scan starts from the same heap state, a full major
     collection with the traffic and the scanned ruleset live, outside
     its timing. The counts are fixed, not timed, so the heap the first
     pass meets does not depend on the machine's speed. *)
  let compiles = ref [] in
  let first = Array.map (fun _ -> None) reqs in
  let digests = Array.map (fun _ -> "") reqs in
  let repeat_mismatch = ref 0 in
  let passes = ref 0 and cycles = ref 0 and rates = ref [] in
  let peak = ref nan in
  let t_start = now () in
  while !passes = 0 || now () -. t_start < seconds do
    let pass_time = ref 0.0 in
    Array.iteri
      (fun k (req : Gen.request) ->
         for _ = 1 to sp.compiles_per_request do
           Gc.full_major ();
           let t0 = now () in
           ignore (Sys.opaque_identity (fresh_compile sp));
           compiles := (now () -. t0) :: !compiles
         done;
         Gc.full_major ();
         let t0 = now () in
         let rep = Ruleset.scan rs req.Gen.data in
         let dt = now () -. t0 in
         pass_time := !pass_time +. dt;
         let d = Digest.string (Marshal.to_string (tagged_hits rep, rep.Ruleset.total_wall_cycles) []) in
         if !passes = 0 then begin
           first.(k) <- Some (tagged_hits rep);
           digests.(k) <- d;
           cycles := !cycles + rep.Ruleset.total_wall_cycles
         end
         else if d <> digests.(k) then incr repeat_mismatch)
      reqs;
    rates := float_of_int pass_bytes /. !pass_time /. 1e6 :: !rates;
    (* peak memory of the first compiles plus one pass over the request
       set; later passes repeat the same work *)
    if !passes = 0 then peak := vm_hwm_mb ();
    incr passes
  done;
  let elapsed = now () -. t_start in
  let hits = Array.map Option.get first in
  let wrong = check ~cache_dir sp rs asts reqs hits in
  (* later passes repeat the first pass's output (digest-checked), so a
     wrong request is wrong in every pass *)
  let bad =
    (!passes * Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 wrong)
    + !repeat_mismatch
  in
  let n_requests = !passes * Array.length reqs in
  Printf.printf "%s: %d passes x %d requests (%d bytes each pass) in %.2f s\n%!"
    sp.name !passes (Array.length reqs) pass_bytes elapsed;
  ( [ ("setup_s", median !compiles);
        ("scan_mb_s", median !rates);
        ("dsa_cycles_per_kib",
         float_of_int !cycles /. (float_of_int pass_bytes /. 1024.0));
        ("isa_words", float_of_int (isa_words rs));
        ("success_ratio",
         float_of_int (n_requests - bad) /. float_of_int n_requests);
        ("peak_rss_mb", !peak) ],
    n_requests,
    bad )

(* --- Traced run: per-layer metrics ------------------------------------- *)

let sp_ = Spans.with_span

(* [Compile.compile] replayed stage by stage, one span per layer call.
   Must produce the same program as the library. *)
let replay_compile ~extended pattern : Compile.compiled =
  let spanned =
    sp_ "frontend" "parse" (fun () ->
        Alveare_frontend.Parser.parse_spanned_result ~extended pattern)
    |> Result.get_ok
  in
  let lint, analysis =
    sp_ "analysis" "lint" (fun () -> Alveare_analysis.Lint.full spanned)
  in
  let ast =
    sp_ "frontend" "desugar" (fun () ->
        Alveare_frontend.Desugar.normalize (Alveare_frontend.Spanned.strip spanned))
  in
  let options = Alveare_ir.Lower.default_options in
  let plain ~backend ast =
    let lower_raw a =
      sp_ "ir" "lower" (fun () ->
          Alveare_ir.Lower.lower
            ~options:{ options with Alveare_ir.Lower.optimize = false } a)
    in
    let opt_ast = sp_ "ir" "opt" (fun () -> Alveare_ir.Opt.optimize ast) in
    let opt_ir = lower_raw opt_ast in
    let ast, ir =
      if Ast.equal opt_ast ast then (ast, opt_ir)
      else
        let raw_ir = lower_raw ast in
        if Alveare_ir.Ir.instruction_count opt_ir
           <= Alveare_ir.Ir.instruction_count raw_ir
        then (opt_ast, opt_ir)
        else (ast, raw_ir)
    in
    let prefilter = sp_ "prefilter" "analyze" (fun () -> Pf.analyze ast) in
    let program =
      sp_ "backend" "emit" (fun () -> Alveare_backend.Emit.program_of_ir ir)
      |> Result.get_ok
    in
    ignore (Result.get_ok (sp_ "isa" "verify" (fun () -> Alveare_isa.Verify.run program)));
    let plan = sp_ "arch" "plan_build" (fun () -> Plan.of_program_unchecked program) in
    let safe_fragments =
      sp_ "analysis" "fragments" (fun () ->
          Alveare_analysis.Ambiguity.program_fragments program)
    in
    let dfa =
      sp_ "arch" "overlay_family" (fun () -> Dfa.family ~fragments:safe_fragments plan)
    in
    { Compile.pattern; ast; ir; program; plan; options; lint; analysis;
      safe_fragments; dfa; prefilter; backend }
  in
  let derivative ast =
    let engine = sp_ "derivative" "build" (fun () -> Deriv.of_ast ast) in
    let c = plain ~backend:Compile.Isa Ast.Empty in
    { c with ast; backend = Compile.Derivative engine;
             prefilter = sp_ "prefilter" "analyze" (fun () -> Pf.analyze ast) }
  in
  if not (Ast.has_extended ast) then plain ~backend:Compile.Isa ast
  else
    match sp_ "ir" "elim" (fun () -> Alveare_ir.Elim.plainify ast) with
    | Alveare_ir.Elim.Plain p -> plain ~backend:Compile.Isa_lowered p
    | Alveare_ir.Elim.Extended s -> derivative s
    | Alveare_ir.Elim.Dead -> derivative ast

(* The ruleset's literal index, rebuilt from public prefilter facts
   exactly as [Ruleset.compile] builds it. *)
let literal_index (compiled : Compile.compiled array) =
  let lits = ref [] and refs = ref [] in
  let covered =
    Array.mapi
      (fun i c ->
         match Pf.usable_literals c.Compile.prefilter with
         | Some l when l.Pf.lits <> [] ->
           List.iter
             (fun s ->
                lits := s :: !lits;
                refs := (i, l.Pf.offset) :: !refs)
             l.Pf.lits;
           true
         | Some _ | None -> false)
      compiled
  in
  if !lits = [] then None
  else
    let ac = sp_ "prefilter" "ac_build" (fun () -> Ac.build (List.rev !lits)) in
    Some (ac, Array.of_list (List.rev !refs), covered)

let replay_ruleset_compile sp =
  sp_ "compiler" "ruleset_compile" (fun () ->
      let compiled =
        Array.of_list
          (List.map (fun (_, p) -> replay_compile ~extended:sp.extended p) sp.rules)
      in
      let overlaps =
        Array.map (fun c -> Multicore.overlap_for_ast c.Compile.ast) compiled
      in
      let index = literal_index compiled in
      let fused =
        sp_ "compiler" "combined_build" (fun () -> Combined.build ~rules:compiled ~ac:index)
      in
      (compiled, overlaps, index, fused))

(* [Ruleset.scan] replayed: the fused sweep, then each rule's
   post-sweep arm, then result assembly. Returns tagged hits and total
   modelled cycles, which must equal the library's. *)
let replay_scan (rs : Ruleset.t) data ~deriv_words =
  let outcomes =
    sp_ "compiler" "combined_sweep" (fun () -> Combined.scan rs.Ruleset.fused ~dfa:true data)
  in
  let per_rule =
    Array.mapi
      (fun i (r : Ruleset.compiled_rule) ->
         let c = r.Ruleset.compiled in
         match c.Compile.backend with
         | Compile.Derivative eng ->
           sp_ "derivative" "find_all" (fun () ->
               let w0 = Gc.minor_words () in
               let m = Deriv.find_all eng data in
               deriv_words := !deriv_words +. (Gc.minor_words () -. w0);
               (0, m))
         | Compile.Isa | Compile.Isa_lowered ->
           (match outcomes.(i) with
            | Combined.Scanned (stats, m) -> (stats.Core.cycles, m)
            | Combined.Candidates cands ->
              sp_ "arch" "attempts" (fun () ->
                  let stats = Core.fresh_stats () in
                  let m =
                    Core.find_all_candidates ~stats ~candidates:cands
                      ~plan:c.Compile.plan ?dfa:c.Compile.dfa c.Compile.program data
                  in
                  (stats.Core.cycles, m))
            | Combined.Residual ->
              sp_ "arch" "residual" (fun () ->
                  let config = Multicore.config ~cores:1 ~overlap:r.Ruleset.overlap () in
                  let res =
                    Multicore.run ~prefilter:c.Compile.prefilter ~plan:c.Compile.plan
                      ?dfa:c.Compile.dfa ~config c.Compile.program data
                  in
                  (res.Multicore.cycles, res.Multicore.matches))))
      rs.Ruleset.rules
  in
  sp_ "compiler" "assemble" (fun () ->
      let hits =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun i (_, m) ->
                   let id = rs.Ruleset.rules.(i).Ruleset.rule.Ruleset.id in
                   List.map (fun s -> (id, s)) m)
                per_rule))
      in
      (hits, Array.fold_left (fun acc (c, _) -> acc + c) 0 per_rule))

let overlay_totals (rs : Ruleset.t) =
  Array.fold_left
    (fun acc r ->
       match r.Ruleset.compiled.Compile.dfa with
       | Some fam -> Dfa.add_stats acc (Dfa.family_stats fam)
       | None -> acc)
    Dfa.zero_stats rs.Ruleset.rules

(* Median time of [reps] calls of [f]. *)
let timed ~reps f =
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

(* Lower bounds over the same bytes: a 256-entry table loop and a
   single-byte index scan. *)
let floors data =
  let n = String.length data in
  let table = Bytes.init 256 (fun i -> if i land 1 = 0 then '\001' else '\000') in
  let table_loop () =
    let c = ref 0 in
    for i = 0 to n - 1 do
      c := !c + Char.code (Bytes.unsafe_get table (Char.code (String.unsafe_get data i)))
    done;
    !c
  in
  let index_loop () =
    let rec go from acc =
      match String.index_from_opt data from '\000' with
      | Some i when i + 1 < n -> go (i + 1) (acc + 1)
      | Some _ -> acc + 1
      | None -> acc
    in
    go 0 0
  in
  let per_byte s = s *. 1e9 /. float_of_int n in
  (per_byte (timed ~reps:5 table_loop), per_byte (timed ~reps:5 index_loop))

(* The single-pattern path of the served rules: [Core.find_all] per
   rule on one 16 KiB slice, with the prefilter (the facade's default)
   and without it (the dense plan skip loop). *)
let single_pattern_path rng =
  let specs = Gen.serve_specs () in
  let compiled = List.map (fun (_, p) -> Compile.compile_exn p) specs in
  let asts = List.mapi (fun i c -> (i, c.Compile.ast)) compiled in
  let slice =
    (Gen.request rng ~size:16384 ~background:Alveare_workloads.Streams.network
       ~every:2048 asts).Gen.data
  in
  let run ~prefilter () =
    List.iter
      (fun c ->
         let pf = if prefilter then Some c.Compile.prefilter else None in
         ignore
           (Core.find_all ?prefilter:pf ~plan:c.Compile.plan ?dfa:c.Compile.dfa
              c.Compile.program slice))
      compiled
  in
  let bytes = float_of_int (16384 * List.length compiled) in
  ( timed ~reps:9 (run ~prefilter:true) *. 1e9 /. bytes,
    timed ~reps:9 (run ~prefilter:false) *. 1e9 /. bytes )

(* Fresh compiles the traced run times on each side. *)
let compile_reps = 3

let run_traced ~spans_path sp ~seed =
  let asts = source_asts sp in
  let reqs = sp.requests (workload_rng sp seed) asts in
  let pass_bytes =
    Array.fold_left (fun acc r -> acc + String.length r.Gen.data) 0 reqs
  in
  let bytes = float_of_int pass_bytes in
  (* fresh compiles, untraced and replayed traced in turn, each from a
     collected heap; the spans of request 0 are the compile's *)
  Spans.reset ();
  let untraced_compile = ref 0.0 and tr_compile = ref 0.0 in
  let rs = ref None and replay = ref None in
  for _ = 1 to compile_reps do
    rs := None;
    replay := None;
    Gc.full_major ();
    let t0 = now () in
    rs := Some (fresh_compile sp);
    untraced_compile := !untraced_compile +. (now () -. t0);
    Gc.full_major ();
    Spans.enabled := true;
    let t0 = now () in
    replay := Some (replay_ruleset_compile sp);
    tr_compile := !tr_compile +. (now () -. t0);
    Spans.enabled := false
  done;
  let reps = float_of_int compile_reps in
  let untraced_compile = !untraced_compile /. reps and tr_compile = !tr_compile /. reps in
  let rs = Option.get !rs in
  let compiled, _, index, _ = Option.get !replay in
  let same_programs =
    Array.for_all2
      (fun (c : Compile.compiled) (r : Ruleset.compiled_rule) ->
         Compile.disassemble c = Compile.disassemble r.Ruleset.compiled)
      compiled rs.Ruleset.rules
  in
  (* one pass warms the overlay and derivative caches, as the
     end-to-end run's first pass does; then each request is scanned
     untraced and replayed traced, both from a collected heap, so
     neither side inherits the other's GC debt *)
  let library = Array.map (fun r -> Ruleset.scan rs r.Gen.data) reqs in
  let untraced_scan = ref 0.0 and tr_scan = ref 0.0 and minor_words = ref 0.0 in
  let deriv_words = ref 0.0 in
  let combined_delta = ref [] and overlay_delta = ref Dfa.zero_stats in
  let replayed =
    Array.mapi
      (fun k r ->
         Gc.full_major ();
         let w0 = Gc.minor_words () in
         let t0 = now () in
         ignore (Sys.opaque_identity (Ruleset.scan rs r.Gen.data));
         untraced_scan := !untraced_scan +. (now () -. t0);
         minor_words := !minor_words +. (Gc.minor_words () -. w0);
         Gc.full_major ();
         let c0 = Combined.counters () and o0 = overlay_totals rs in
         Spans.enabled := true;
         Spans.start_request (k + 1);
         let t0 = now () in
         let out = replay_scan rs r.Gen.data ~deriv_words in
         tr_scan := !tr_scan +. (now () -. t0);
         Spans.enabled := false;
         combined_delta := (c0, Combined.counters ()) :: !combined_delta;
         let o1 = overlay_totals rs in
         overlay_delta :=
           Dfa.add_stats !overlay_delta
             { Dfa.states_built = o1.Dfa.states_built - o0.Dfa.states_built;
               transitions_built = o1.Dfa.transitions_built - o0.Dfa.transitions_built;
               hits = o1.Dfa.hits - o0.Dfa.hits;
               misses = o1.Dfa.misses - o0.Dfa.misses;
               flushes = o1.Dfa.flushes - o0.Dfa.flushes;
               bails = o1.Dfa.bails - o0.Dfa.bails;
               dfa_attempts = o1.Dfa.dfa_attempts - o0.Dfa.dfa_attempts };
         out)
      reqs
  in
  let untraced_scan = !untraced_scan and tr_scan = !tr_scan in
  let minor_words = !minor_words in
  let same_hits =
    Array.for_all2
      (fun (h, c) (l : Ruleset.report) -> h = tagged_hits l && c = l.Ruleset.total_wall_cycles)
      replayed library
  in
  let compile_layers, compile_names = Spans.self_times ~keep:(fun r -> r = 0) () in
  let scan_layers, scan_names = Spans.self_times ~keep:(fun r -> r > 0) () in
  let self name = Spans.self_of scan_names name in
  (* compile-path self time per fresh ruleset compile *)
  let ms name = Spans.self_of compile_names name *. 1e3 /. reps in
  let per_byte s = s *. 1e9 /. bytes in
  let table_total tbl = Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0.0 in
  let attributed = (table_total compile_layers /. reps) +. table_total scan_layers in
  let traced_total = tr_compile +. tr_scan in
  let untraced_total = untraced_compile +. untraced_scan in
  Spans.write spans_path;
  (* counters of one untraced pass *)
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 library in
  let attempts = sum (fun r -> r.Ruleset.total_attempts) in
  let scanned = sum (fun r -> r.Ruleset.total_offsets_scanned) in
  let pruned = sum (fun r -> r.Ruleset.total_offsets_pruned) in
  let isa_hits =
    Array.fold_left
      (fun acc (l : Ruleset.report) ->
         acc
         + List.length
             (List.filter
                (fun (h : Ruleset.hit) -> isa_backed rs.Ruleset.rules.(h.Ruleset.hit_rule.Ruleset.id))
                l.Ruleset.hits))
      0 library
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let ac_stats =
    match index with
    | None -> (0, 0, 0.0)
    | Some (ac, _, _) ->
      let occ = ref 0 in
      let t =
        timed ~reps:3 (fun () ->
            occ := 0;
            Array.iter (fun r -> Ac.find_iter ac r.Gen.data (fun ~pat:_ ~pos:_ -> incr occ)) reqs)
      in
      (Ac.state_count ac, !occ, per_byte t)
  in
  let ac_states, ac_occ, ac_ns = ac_stats in
  let nodfa =
    timed ~reps:3 (fun () ->
        Array.iter (fun r -> ignore (Combined.scan rs.Ruleset.fused ~dfa:false r.Gen.data)) reqs)
  in
  let fixed_ms = timed ~reps:7 (fun () -> Ruleset.scan rs "x") *. 1e3 in
  let deriv_states =
    Array.fold_left
      (fun acc r ->
         match r.Ruleset.compiled.Compile.backend with
         | Compile.Derivative eng -> acc + Deriv.state_count eng
         | Compile.Isa | Compile.Isa_lowered -> acc)
      0 rs.Ruleset.rules
  in
  let all = String.concat "" (Array.to_list (Array.map (fun r -> r.Gen.data) reqs)) in
  let floor_table, floor_index = floors all in
  let single_pf, single_dense = single_pattern_path (workload_rng sp (seed + 7)) in
  let d f =
    float_of_int
      (List.fold_left (fun acc (c0, c1) -> acc + f c1 - f c0) 0 !combined_delta)
  in
  let o f = float_of_int (f !overlay_delta) in
  let post_sweep =
    self "arch.attempts" +. self "arch.residual" +. self "derivative.find_all"
    +. self "compiler.assemble"
  in
  let checks_ok = same_programs && same_hits in
  if not same_programs then prerr_endline "traced: replayed compile differs from the library";
  if not same_hits then prerr_endline "traced: replayed scan differs from the library";
  let overhead = (traced_total -. untraced_total) /. untraced_total in
  let metrics =
    [ ("frontend.parse_ms", ms "frontend.parse" +. ms "frontend.desugar");
      ("analysis.lint_ms", ms "analysis.lint");
      ("analysis.fragments_ms", ms "analysis.fragments");
      ("ir.opt_ms", ms "ir.opt");
      ("ir.lower_ms", ms "ir.lower");
      ("ir.elim_ms", ms "ir.elim");
      ("backend.emit_ms", ms "backend.emit");
      ("isa.verify_ms", ms "isa.verify");
      ("arch.plan_build_ms", ms "arch.plan_build");
      ("arch.overlay_family_ms", ms "arch.overlay_family");
      ("prefilter.analyze_ms", ms "prefilter.analyze");
      ("derivative.build_ms", ms "derivative.build");
      ("prefilter.ac_build_ms", ms "prefilter.ac_build");
      ("compiler.combined_build_ms", ms "compiler.combined_build");
      ("prefilter.ac_ns_per_byte", ac_ns);
      ("prefilter.ac_states", float_of_int ac_states);
      ("prefilter.ac_occurrences", float_of_int ac_occ);
      ("compiler.combined_sweep_ns_per_byte", per_byte (self "compiler.combined_sweep"));
      ("compiler.combined_sweep_nodfa_ns_per_byte", per_byte nodfa);
      ("compiler.combined_dispatch_candidates", d (fun c -> c.Combined.dispatch_candidates));
      ("compiler.combined_ac_candidates", d (fun c -> c.Combined.ac_candidates));
      ("compiler.combined_product_threads", d (fun c -> c.Combined.product_threads));
      ("compiler.combined_product_states", d (fun c -> c.Combined.product_states));
      ("compiler.ruleset_post_sweep_ns_per_byte", per_byte post_sweep);
      ("compiler.ruleset_minor_words_per_byte", minor_words /. bytes);
      ("compiler.ruleset_call_fixed_ms", fixed_ms);
      ("arch.attempts", float_of_int attempts);
      ("arch.attempt_yield", ratio isa_hits attempts);
      ("arch.pruned_share", ratio pruned scanned);
      ("arch.overlay_hit_ratio",
       (let h = o (fun s -> s.Dfa.hits) and m = o (fun s -> s.Dfa.misses) in
        if h +. m = 0.0 then 0.0 else h /. (h +. m)));
      ("arch.overlay_states_built", o (fun s -> s.Dfa.states_built));
      ("arch.overlay_flushes", o (fun s -> s.Dfa.flushes));
      ("arch.overlay_bails", o (fun s -> s.Dfa.bails));
      ("derivative.ns_per_byte", per_byte (self "derivative.find_all"));
      ("derivative.states", float_of_int deriv_states);
      ("derivative.minor_words_per_byte", !deriv_words /. bytes);
      ("arch.single_prefilter_ns_per_byte", single_pf);
      ("arch.single_dense_ns_per_byte", single_dense);
      ("floor.table_ns_per_byte", floor_table);
      ("floor.memchr_ns_per_byte", floor_index);
      ("trace.overhead_share", overhead);
      ("trace.unattributed_share", (traced_total -. attributed) /. traced_total) ]
  in
  Printf.printf
    "%s traced: untraced compile %.1f ms + pass %.1f ms; traced %.1f + %.1f ms; \
     attributed %.1f ms\n%!"
    sp.name (untraced_compile *. 1e3) (untraced_scan *. 1e3) (tr_compile *. 1e3)
    (tr_scan *. 1e3) (attributed *. 1e3);
  (metrics, Array.length reqs, (if checks_ok then 0 else 1))
