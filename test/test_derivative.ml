(* The derivative-engine battery (@derivcheck).

   The derivative matcher is the semantic oracle for the extended
   operators, so its own correctness is anchored two ways:

   - span-for-span agreement with the Backtrack oracle (and hence the
     whole plan-executor stack) on the existing random-AST POSIX-ERE
     corpus — the same generators the cross-engine differential uses;
   - algebraic identities of the extended operators checked as
     language equivalence on concrete inputs (r&r = r, (?~(?~r))
     matches where r does, De Morgan), plus hand-picked intersection /
     complement / lookaround cases with known spans, including
     end-of-input edge cases;
   - span-for-span agreement with the straightforward reference matcher
     (test/support/deriv_reference.ml) on lookaround-heavy random
     patterns, so the engine's scan-wide memo, start skip, one-pass
     lookaround tables and mask-keyed memo change no span. *)

module Gen_ast = Alveare_test_support.Gen_ast
module Engine = Alveare_derivative.Engine
module Backtrack = Alveare_engine.Backtrack
module S = Alveare_engine.Semantics
module Ast = Alveare_frontend.Ast
module Desugar = Alveare_frontend.Desugar

let show_spans spans = Fmt.str "%a" Fmt.(list ~sep:semi S.pp_span) spans

let spans_of_pairs = List.map (fun (start, stop) -> { S.start; stop })

let check_spans ?(extended = true) pattern input expected =
  let eng = Engine.of_pattern ~extended pattern in
  let got = Engine.find_all eng input in
  Alcotest.(check string)
    (Fmt.str "%s on %S" pattern input)
    (show_spans (spans_of_pairs expected))
    (show_spans got)

(* --- Agreement with the backtracking oracle on plain ERE --------------- *)

let check_vs_backtrack ast input =
  let oracle = Backtrack.find_all ast input in
  let got = Engine.find_all (Engine.of_ast ast) input in
  if got <> oracle then
    Alcotest.failf "derivative diverges@.  pattern: %s@.  input: %S@.  deriv %s oracle %s"
      (Ast.to_pattern ast) input (show_spans got) (show_spans oracle)

let test_plain_corpus () =
  (* curated cases that historically separate FIRST from LONGEST *)
  let cases =
    [ ("a|ab", "ab");
      ("a|ab", "abab");
      ("(a|ab)c", "abc");
      ("a*", "aaa");
      ("a*?", "aaa");
      ("a*?b", "aab");
      ("(a|)*b", "aab");
      ("(|a)*b", "aab");
      ("(a*)*b", "aab");
      ("(a?){2,3}b", "ab");
      ("ab|a", "ab");
      ("(ab|a)(c|bc)", "abc");
      ("a{2,4}", "aaaaa");
      ("a{2,4}?", "aaaaa");
      ("(ab)*", "ababab");
      ("x(a|ab)*y", "xababy");
      ("[a-c]+", "abcd");
      ("a?b?c?", "ca");
      ("", "ab");
      ("(a*)*", "aa") ]
  in
  List.iter
    (fun (pattern, input) ->
      match Desugar.pattern ~extended:false pattern with
      | Error e -> Alcotest.failf "parse %s: %s" pattern e
      | Ok ast -> check_vs_backtrack ast input)
    cases

let test_random_differential () =
  let prop (ast, input) =
    let oracle = Backtrack.find_all ast input in
    let got = Engine.find_all (Engine.of_ast ast) input in
    if got <> oracle then
      QCheck2.Test.fail_reportf "deriv %s oracle %s" (show_spans got)
        (show_spans oracle)
    else true
  in
  let cell =
    QCheck2.Test.make ~count:400 ~name:"derivative = backtrack spans"
      ~print:Gen_ast.print_ast_and_input Gen_ast.gen_ast_and_input prop
  in
  QCheck2.Test.check_exn cell

(* --- Extended operators: known spans ----------------------------------- *)

let test_intersection () =
  (* conjunction of length and content constraints *)
  check_spans "[ab]*&a*b" "aab" [ (0, 3) ];
  (* zero a's then b: "b" is in both languages *)
  check_spans "[ab]*&a*b" "ba" [ (0, 1) ];
  check_spans "[ab]*&a*b" "cc" [];
  (* longest (prefer-continue) preference; the trailing empty span at
     end of input mirrors plain a* *)
  check_spans "a*&a*" "aaa" [ (0, 3); (3, 3) ];
  (* intersection with a literal is that literal *)
  check_spans "abc&[a-c]+" "xabcy" [ (1, 4) ];
  (* empty intersection *)
  check_spans "a&b" "ab" [];
  (* three members *)
  check_spans "[ab]+&[bc]+&b+" "abba" [ (1, 3) ]

let test_complement () =
  (* complement of 'a' matches everything except exactly "a" —
     leftmost-longest takes the whole input, then the empty suffix at
     end of input (the empty string is not "a" either) *)
  check_spans "(?~a)" "ba" [ (0, 2); (2, 2) ];
  (* on input "a": at 0 the longest non-"a" prefix is "" (the prefix
     "a" itself is excluded); the scan then advances byte by byte *)
  check_spans "(?~a)" "a" [ (0, 0); (1, 1) ];
  (* strings not containing "ab" as a substring: complement of .*ab.*
     — the longest clean prefix at 0 is "xa" (it stops before the b) *)
  check_spans "(?~.*ab.*)" "xaby" [ (0, 2); (2, 4); (4, 4) ];
  (* intersection with complement: a+ minus "aa" *)
  check_spans "a+&(?~aa)" "aaa" [ (0, 3) ];
  check_spans "a+&(?~aa)" "aa" [ (0, 1); (1, 2) ]

let test_lookahead () =
  (* classic: a followed by b, consuming only a *)
  check_spans "a(?=b)" "ab ac ab" [ (0, 1); (6, 7) ];
  check_spans "a(?!b)" "ab ac a" [ (3, 4); (6, 7) ];
  (* end of input: (?!.) holds only at EOI (with . = any byte) *)
  check_spans "a(?!.)" "aa" [ (1, 2) ];
  (* lookahead at end of input fails when it needs a byte *)
  check_spans "a(?=b)" "a" [];
  (* negative lookahead at EOI trivially holds *)
  check_spans "a(?!b)" "a" [ (0, 1) ];
  (* lookahead constrains the alternative taken *)
  check_spans "(a|ab)(?=c)" "abc" [ (0, 2) ]

let test_lookbehind () =
  (* b preceded by a *)
  check_spans "(?<=a)b" "ab cb ab" [ (1, 2); (7, 8) ];
  check_spans "(?<!a)b" "ab cb b" [ (4, 5); (6, 7) ];
  (* start of input: lookbehind for a byte fails at 0 *)
  check_spans "(?<=a)b" "b" [];
  (* negative lookbehind at start of input trivially holds *)
  check_spans "(?<!a)b" "b" [ (0, 1) ];
  (* unanchored lookbehind body: any position with an 'a' somewhere
     before — the body may match any window ending at p *)
  check_spans "(?<=a.*)b" "a b" [ (2, 3) ]

let test_look_edge_cases () =
  (* both branches are zero-width: a span at every scan position *)
  check_spans "(?=a)|" "ba" [ (0, 0); (1, 1); (2, 2) ];
  (* lookahead alone: zero-width spans where it holds *)
  check_spans "(?=ab)" "abab" [ (0, 0); (2, 2) ];
  (* nested lookaround: b preceded by a that is followed by "bc" *)
  check_spans "(?<=a(?=bc))b" "abc abd" [ (1, 2) ]

(* --- Against the reference matcher --------------------------------------- *)

(* The engine shares one memo context per scan, skips starts by first
   byte and decides look-free lookaround bodies from one-pass tables;
   the reference (test/support/deriv_reference.ml) does none of that.
   Spans must agree exactly: the full scan, [search ~from] from inside
   the input, and [match_at] at every start including 0 and n. *)
module Reference = Alveare_test_support.Deriv_reference

let reference_divergence ast input =
  let eng = Engine.of_ast ast and reference = Reference.of_ast ast in
  let n = String.length input in
  let show_opt = function
    | None -> "none"
    | Some span -> Fmt.str "%a" S.pp_span span
  in
  let got = Engine.find_all eng input
  and want = Reference.find_all reference input in
  if got <> want then
    Some (Fmt.str "find_all: engine %s reference %s" (show_spans got)
            (show_spans want))
  else
    let from_mismatch =
      List.find_map
        (fun from ->
           let got = Engine.search ~from eng input
           and want = Reference.search ~from reference input in
           if got = want then None
           else
             Some (Fmt.str "search ~from:%d: engine %s reference %s" from
                     (show_opt got) (show_opt want)))
        [ 1; n / 3; n / 2; n ]
    in
    match from_mismatch with
    | Some _ -> from_mismatch
    | None ->
      List.find_map
        (fun start ->
           let got = Engine.match_at eng input start
           and want = Reference.match_at reference input start in
           if got = want then None
           else
             Some (Fmt.str "match_at %d: engine %s reference %s" start
                     (Fmt.str "%a" Fmt.(option ~none:(any "none") int) got)
                     (Fmt.str "%a" Fmt.(option ~none:(any "none") int) want)))
        (List.init (n + 1) Fun.id)

let test_reference_differential () =
  let prop (ast, input) =
    match reference_divergence ast input with
    | None -> true
    | Some detail -> QCheck2.Test.fail_reportf "%s" detail
  in
  let cell =
    QCheck2.Test.make ~count:500 ~name:"engine = reference matcher"
      ~print:Gen_ast.print_ast_and_input Gen_ast.gen_lookaround_ast_and_input
      prop
  in
  QCheck2.Test.check_exn cell

(* Edge cases, each with known spans and checked against the reference. *)
let test_reference_edges () =
  let check pattern input expected =
    check_spans pattern input expected;
    match
      reference_divergence (Desugar.pattern_exn ~extended:true pattern) input
    with
    | None -> ()
    | Some detail -> Alcotest.failf "%s on %S: %s" pattern input detail
  in
  (* unbounded bodies: the tables see arbitrarily far back / ahead *)
  check "(?<=a.*)b" "b ab b" [ (3, 4); (5, 6) ];
  check "b(?=.*a)" "b ba b" [ (0, 1); (2, 3) ];
  check "(?<=a[^x]*)b" "bxab xb" [ (3, 4) ];
  (* p = 0: a lookbehind sees nothing, its negation holds *)
  check "(?<!.)x" "xx" [ (0, 1) ];
  check "(?<=.)x" "xx" [ (1, 2) ];
  (* p = n: a lookahead sees nothing, its negation holds; a zero-width
     root is tried at end of input *)
  check "x(?!.)" "xx" [ (1, 2) ];
  check "(?<=b)" "ab" [ (2, 2) ];
  check "(?=b)" "ab" [ (1, 1) ];
  (* nullable roots: no start is skipped *)
  check "a*(?<=b)" "ba" [ (1, 1) ];
  check "(?<=a)|b" "cab" [ (2, 2) ];
  check "(?~b)&(?=a).*" "ab" [ (0, 2) ];
  (* negated looks, with look-free and look-bearing bodies *)
  check "(?<![ab])c" "acbc cc" [ (5, 6); (6, 7) ];
  check "c(?![ab])" "cacbc c" [ (4, 5); (6, 7) ];
  check "(?<!a(?=b))b" "abcb" [ (3, 4) ];
  check "(?<!(?<=x)a)b" "xab ab" [ (5, 6) ];
  check "b(?!c(?<=bc))" "bcbd" [ (2, 3) ];
  (* several lookarounds in one pattern, each its own table *)
  check "(?<=a)b(?!c)" "abc abd cb" [ (5, 6) ];
  check "(?<![0-9])[a-z]+(?=[0-9])" "x1 ab2 9cd3" [ (0, 1); (3, 5); (9, 10) ]

(* The policy workload's rules over a planted stream: every rule on the
   derivative engine, including the lookbehind rules whose per-position
   evaluation the one-pass tables replaced. *)
let test_reference_policy () =
  let rng = Alveare_workloads.Rng.create 31 in
  let asts =
    List.map (Desugar.pattern_exn ~extended:true)
      (Alveare_workloads.Policy.patterns rng 16)
  in
  let stream =
    Alveare_workloads.Streams.generate
      ~rng:(Alveare_workloads.Rng.create 32) ~size:2048
      ~background:Alveare_workloads.Policy.background
      ~plant:(Alveare_workloads.Streams.plant_of_patterns ~asts)
      ~plant_every:256 ()
  in
  let input = stream.Alveare_workloads.Streams.data in
  let hits =
    List.fold_left
      (fun hits ast ->
         let got = Engine.find_all (Engine.of_ast ast) input
         and want = Reference.find_all (Reference.of_ast ast) input in
         if got <> want then
           Alcotest.failf "%s: engine %s reference %s" (Ast.to_pattern ast)
             (show_spans got) (show_spans want);
         hits + List.length got)
      0 asts
  in
  if hits = 0 then Alcotest.fail "no policy rule matched the planted stream"

(* --- Algebraic identities as language equivalence ---------------------- *)

let inputs_for n =
  (* all strings over {a,b} up to length n, plus a few longer probes *)
  let rec go len acc =
    if len > n then acc
    else
      let ext = List.concat_map (fun s -> [ s ^ "a"; s ^ "b" ]) acc in
      go (len + 1) (acc @ List.filter (fun s -> String.length s = len) ext)
  in
  go 1 [ "" ] @ [ "aabba"; "ababab"; "bbbaaa" ]

let equiv_on name left right =
  let l = Engine.of_pattern left and r = Engine.of_pattern right in
  List.iter
    (fun input ->
      let lm = Engine.matches l input and rm = Engine.matches r input in
      if lm <> rm then
        Alcotest.failf "%s: %s vs %s differ on %S (%b vs %b)" name left right
          input lm rm;
      (* also compare full-string acceptance via match_at reaching EOI *)
      let full e = Engine.match_at e input 0 = Some (String.length input) in
      ignore (full l))
    (inputs_for 4)

let test_identities () =
  equiv_on "idempotence" "a*b&a*b" "a*b";
  equiv_on "double complement (language)" "(?~(?~a*b))" "a*b";
  equiv_on "De Morgan and" "(?~(a+&b+))" "(?~a+)|(?~b+)";
  equiv_on "De Morgan or" "(?~(a+|b+))" "(?~a+)&(?~b+)";
  equiv_on "absorption" "a+&(a+|b+)" "a+";
  (* (?~x+) is universal over the {a,b} probe inputs *)
  equiv_on "intersection with universe" "a*b&(?~x+)" "a*b"

(* --- Lowering vs the oracle: the mid-end pipeline end to end ----------- *)

module Differential = Alveare_test_support.Differential

(* Random extended patterns through [Compile.compile_ast] — whichever
   backend the elimination pipeline picks (rewritten ISA program or the
   derivative engine) must report the oracle's spans. Shares
   [check_extended_case] with the fuzzer (bin/alveare_fuzz --extended). *)
let test_lowering_differential () =
  let prop (ast, input) =
    match Differential.check_extended_case ast input with
    | [] -> true
    | f :: _ ->
      QCheck2.Test.fail_reportf "%a" Differential.pp_failure f
  in
  let cell =
    QCheck2.Test.make ~count:300 ~name:"lowering = derivative oracle"
      ~print:Gen_ast.print_ast_and_input Gen_ast.gen_extended_ast_and_input
      prop
  in
  QCheck2.Test.check_exn cell

(* Bounded seeded corpus of the same check, so CI covers the Rng-driven
   generator family the long-running fuzzer uses. *)
let test_lowering_corpus () =
  match
    Differential.run_extended_corpus ~count:150 ~seed:2024 ()
  with
  | [] -> ()
  | f :: _ as fs ->
    Alcotest.failf "%d divergence(s), first: %a" (List.length fs)
      Differential.pp_failure f

(* --- Policy workload: witness-planting contract ------------------------ *)

(* The policy sampler promises that [Sampler.sample] on any of its rules
   (which draws intersection witnesses from member 1 and skips
   zero-width nodes) yields a string the WHOLE rule matches exactly —
   that is what makes its planted bench streams ground truth. Checked
   here against the derivative engine for every family, many draws. *)
let test_policy_witnesses () =
  let rng = Alveare_workloads.Rng.create 77 in
  List.iter
    (fun pattern ->
      let ast = Desugar.pattern_exn ~extended:true pattern in
      let eng = Engine.of_ast ast in
      for _ = 1 to 5 do
        let w = Alveare_workloads.Sampler.sample rng ast in
        match Engine.match_at eng w 0 with
        | Some stop when stop = String.length w -> ()
        | got ->
          Alcotest.failf "policy witness %S of %s: match_at 0 = %s" w pattern
            (match got with
             | Some s -> string_of_int s
             | None -> "none")
      done)
    (Alveare_workloads.Policy.patterns rng 60)

(* --- Priority: intersection/complement are longest-preferring ---------- *)

let test_prefer_continue () =
  (* And wrapper keeps longest preference even with a FIRST-leaning body *)
  check_spans "(a|aa)&(a|aa)" "aa" [ (0, 2) ];
  (* ... while the bare alternation is FIRST *)
  check_spans ~extended:false "(a|aa)" "aa" [ (0, 1); (1, 2) ];
  (* double complement: language of r, longest preference *)
  check_spans "(?~(?~(a|aa)))" "aa" [ (0, 2) ]

let () =
  Alcotest.run "derivative"
    [ ( "plain",
        [ Alcotest.test_case "curated FIRST-vs-LONGEST corpus" `Quick
            test_plain_corpus;
          Alcotest.test_case "random differential vs backtrack" `Quick
            test_random_differential ] );
      ( "extended",
        [ Alcotest.test_case "intersection" `Quick test_intersection;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "lookahead" `Quick test_lookahead;
          Alcotest.test_case "lookbehind" `Quick test_lookbehind;
          Alcotest.test_case "lookaround edge cases" `Quick
            test_look_edge_cases ] );
      ( "reference",
        [ Alcotest.test_case "random lookarounds vs reference" `Quick
            test_reference_differential;
          Alcotest.test_case "lookaround edges vs reference" `Quick
            test_reference_edges;
          Alcotest.test_case "policy rules vs reference" `Quick
            test_reference_policy ] );
      ( "lowering",
        [ Alcotest.test_case "random lowering vs oracle" `Quick
            test_lowering_differential;
          Alcotest.test_case "seeded lowering corpus" `Quick
            test_lowering_corpus;
          Alcotest.test_case "policy witness contract" `Quick
            test_policy_witnesses ] );
      ( "algebra",
        [ Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "prefer-continue priority" `Quick
            test_prefer_continue ] ) ]
