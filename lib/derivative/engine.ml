(* Priority-faithful Brzozowski-derivative matcher.

   Plain Brzozowski derivatives decide language membership — which is
   leftmost-LONGEST. The engines in this repository implement PCRE
   leftmost-FIRST (the Backtrack oracle): on "ab", the pattern "a|ab"
   matches "a". To reproduce that, the matcher tracks not just the
   residual language but the backtracking LEAF ORDER, through a
   three-way split:

     split_at r p = (pre, acc, post)

   decomposing the depth-first leaf sequence of r's epsilon-closure at
   position p into the leaves strictly BEFORE the first epsilon-accept
   (pre — each must consume a byte), whether such an accept exists
   (acc), and the leaves after it (post). The rules mirror the
   Backtrack CPS matcher case by case, including PCRE's zero-width
   iteration cutoff for quantifiers (a greedy iteration that consumes
   nothing exits the loop; a lazy one is pruned).

   The ordered derivative keeps the same leaf order:

     d (r . s) c | nullable r = (d r0 . s) | d s | (d r1 . s)
       where split r = (r0, _, r1)

   — the leaves of s sit between r's pre- and post-accept leaves,
   exactly where the backtracker explores them.

   The top-level driver per start position then needs only pre and acc:
   an epsilon-accept at p records candidate end p, and only the
   HIGHER-priority continuations (pre) may keep running — a later,
   longer match wins only if it comes from a leaf the backtracker would
   have reached first. Scanning start positions in ascending order
   gives leftmost.

   Extended operators carry set semantics:
     nullable (r & s) = both        d (r & s) = d r & d s
     nullable (?~r)   = not r's     d (?~r)   = ?~(d r)
   Their split, when nullable, is ((r minus eps), true, bot): consuming
   is PREFERRED over accepting — intersection and complement match
   longest (prefer-continue), a documented choice since they have no
   backtracking leaf order of their own.

   Lookarounds are absolute-position predicates against the full input:
   nullable_at (Look ...) p evaluates the body from/until p, derivatives
   are bot (zero width).

   Cost (after RE#, Varatalu et al.). A look-free lookaround body b is
   decided at every position by ONE pass over the input, into an
   (n+1)-byte truth table:

     (?<=b) holds at p  iff  Σ*·b       accepts input[0..p)
     (?=b)  holds at p  iff  Σ*·rev(b)  accepts rev(input[p..n))

   — a forward run for lookbehind, a backward run for lookahead, each
   over interned look-free states (arena-cached derivatives). So each
   such body costs O(n) per scan and every later query is one load. A
   look-bearing (nested) body is still evaluated per position: a
   lookbehind tries every start 0..p, a lookahead walks forward from p.

   Memoisation of look-bearing nodes. In a FLAT engine — every
   lookaround body look-free, at most 8 of them — a look-bearing node's
   nullability, split and derivatives depend on the position only
   through the truth of those lookarounds there. The scan builds all
   their tables up front and folds them into an 8-bit mask per
   position; the memo is keyed (node id, mask[, byte]) and lives in the
   engine, valid for every position of every input. Otherwise the
   memo is keyed (node id, position[, byte]), lives for one scan, and
   one [find_all] shares it across its hits (the entries depend only on
   the input); tables are then built on first query.

   Start skip: when the root cannot be nullable at any position, a match
   consumes its first byte, so starts whose byte lies outside the root's
   first-byte over-approximation are skipped without an attempt (a
   256-entry table built once per engine). *)

open Alveare_frontend
module R = Regex
module Semantics = Alveare_engine.Semantics

(* Memo tables for look-bearing nodes, keyed by one packed int:
   (node id, slot) for nullability and splits, (node id, slot, byte)
   for derivatives. A slot is a position, or — for a flat engine — the
   truth mask of its lookarounds at that position. *)
module Memo = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type memo = {
  nul : bool Memo.t;
  spl : (R.node * bool * R.node) Memo.t;
  der : R.node Memo.t;
}

let new_memo size =
  { nul = Memo.create size; spl = Memo.create size; der = Memo.create size }

type t = {
  arena : R.t;
  root : R.node;
  starts : Bytes.t option;
      (* byte -> can begin a match; [None] when the root may be
         nullable somewhere (every start must then be tried) *)
  looks : (bool * R.node) array option;
      (* flat engines: the distinct lookarounds (lookbehind?, body);
         bit i of a position's mask is the truth of body i there *)
  flat_memo : memo;
}

let start_table (root : R.node) : Bytes.t option =
  if R.may_null root then None
  else begin
    let first = R.first_bytes root in
    Some
      (Bytes.init 256 (fun b ->
           if Charset.mem (Char.chr b) first then '\001' else '\000'))
  end

let look_key behind (body : R.node) =
  (2 * body.R.id) + if behind then 1 else 0

(* The distinct lookarounds (lookbehind?, body) of a flat engine — see
   the header — or [None]. Derivatives never create lookaround nodes,
   so these are all any derivative state will meet. *)
let max_flat_looks = 8

let flat_looks (root : R.node) : (bool * R.node) array option =
  let seen = Hashtbl.create 16 and looks = Hashtbl.create 8 in
  let rec walk (n : R.node) =
    if (not n.R.look_free) && not (Hashtbl.mem seen n.R.id) then begin
      Hashtbl.add seen n.R.id ();
      match n.R.desc with
      | R.Look (l, body) ->
        if not body.R.look_free then raise Exit;
        Hashtbl.replace looks (look_key l.Ast.behind body) (l.Ast.behind, body)
      | R.Cat (x, y) -> walk x; walk y
      | R.Alt xs | R.And xs -> List.iter walk xs
      | R.Not x | R.Rep (x, _, _, _) -> walk x
      | R.Bot | R.Eps | R.Chars _ -> ()
    end
  in
  match walk root with
  | exception Exit -> None
  | () ->
    if Hashtbl.length looks > max_flat_looks then None
    else Some (Array.of_seq (Hashtbl.to_seq_values looks))

let of_ast ast =
  let arena = R.create () in
  let root =
    Mutex.protect (R.lock arena) (fun () -> R.of_ast arena ast)
  in
  { arena; root; starts = start_table root; looks = flat_looks root;
    flat_memo = new_memo 64 }

let of_pattern ?(extended = true) pattern =
  of_ast (Desugar.pattern_exn ~extended pattern)

let state_count eng = R.size eng.arena
let look_free eng = eng.root.R.look_free
let arena eng = eng.arena
let root eng = eng.root

(* One scan's context. Look-free nodes hit the arena caches; look-bearing
   ones hit [memo] — the engine's own for a flat engine, else a fresh
   per-scan one keyed by position. [tables] holds the one-pass truth
   tables of look-free lookaround bodies, keyed by [look_key]. *)
type ctx = {
  a : R.t;
  input : string;
  memo : memo;
  masks : Bytes.t option;
      (* flat engines: the lookaround truth mask at each position *)
  stride : int; (* slots per node id *)
  tables : (int, Bytes.t) Hashtbl.t;
}

let slot ctx p =
  match ctx.masks with
  | Some masks -> Char.code (Bytes.unsafe_get masks p)
  | None -> p

let key ctx (n : R.node) p = (n.R.id * ctx.stride) + slot ctx p

let rec nullable_at ctx (n : R.node) (p : int) : bool =
  if n.R.look_free then n.R.null
  else
    let k = key ctx n p in
    match Memo.find_opt ctx.memo.nul k with
    | Some b -> b
    | None ->
      let b =
        match n.R.desc with
        | R.Look (l, body) -> eval_look ctx l body p
        | R.Cat (x, y) -> nullable_at ctx x p && nullable_at ctx y p
        | R.Alt xs -> List.exists (fun x -> nullable_at ctx x p) xs
        | R.And xs -> List.for_all (fun x -> nullable_at ctx x p) xs
        | R.Not x -> not (nullable_at ctx x p)
        | R.Rep (x, lo, _, _) -> lo = 0 || nullable_at ctx x p
        | R.Bot | R.Eps | R.Chars _ -> n.R.null
      in
      Memo.replace ctx.memo.nul k b;
      b

and eval_look ctx (l : Ast.look) (body : R.node) (p : int) : bool =
  let holds =
    if body.R.look_free then
      Bytes.get (look_table ctx l.Ast.behind body) p <> '\000'
    else if l.Ast.behind then match_ending_at ctx body p
    else match_starting_at ctx body p
  in
  if l.Ast.negative then not holds else holds

(* The truth of a look-free body at every position 0..n, built on first
   use in this context by one derivative pass (see the header). *)
and look_table ctx behind (body : R.node) : Bytes.t =
  let key = look_key behind body in
  match Hashtbl.find_opt ctx.tables key with
  | Some table -> table
  | None ->
    let a = ctx.a and input = ctx.input in
    let n = String.length input in
    let table = Bytes.make (n + 1) '\000' in
    let mark p (state : R.node) =
      if state.R.null then Bytes.unsafe_set table p '\001'
    in
    let sigma_star = R.rep a (R.chars a R.full_set) 0 None true in
    if behind then begin
      let state = ref (R.cat a sigma_star body) in
      mark 0 !state;
      for p = 0 to n - 1 do
        state := deriv_at ctx !state p (String.unsafe_get input p);
        mark (p + 1) !state
      done
    end
    else begin
      let state = ref (R.cat a sigma_star (R.reverse a body)) in
      mark n !state;
      for p = n - 1 downto 0 do
        state := deriv_at ctx !state p (String.unsafe_get input p);
        mark p !state
      done
    end;
    Hashtbl.add ctx.tables key table;
    table

(* (?=r) with a look-bearing body: does it match input[p..e) for some
   e? Derivative run over the suffix, succeeding at the first nullable
   state. *)
and match_starting_at ctx (body : R.node) (p : int) : bool =
  let n = String.length ctx.input in
  let rec go state q =
    if nullable_at ctx state q then true
    else if R.is_bot state || q >= n then false
    else go (deriv_at ctx state q ctx.input.[q]) (q + 1)
  in
  go body p

(* (?<=r) with a look-bearing body: does it match input[s..p) exactly
   for some s <= p? Tries every start. *)
and match_ending_at ctx (body : R.node) (p : int) : bool =
  let rec exact state q =
    if q = p then nullable_at ctx state q
    else if R.is_bot state then false
    else exact (deriv_at ctx state q ctx.input.[q]) (q + 1)
  in
  let rec try_start s = s <= p && (exact body s || try_start (s + 1)) in
  try_start 0

and split_at ctx (n : R.node) (p : int) : R.node * bool * R.node =
  if n.R.look_free then
    match R.find_split ctx.a n with
    | Some r -> r
    | None ->
      let r = split_step ctx n p in
      R.add_split ctx.a n r;
      r
  else
    let k = key ctx n p in
    match Memo.find_opt ctx.memo.spl k with
    | Some r -> r
    | None ->
      let r = split_step ctx n p in
      Memo.replace ctx.memo.spl k r;
      r

and split_step ctx (n : R.node) (p : int) : R.node * bool * R.node =
  let a = ctx.a in
  match n.R.desc with
  | R.Bot -> (n, false, n)
  | R.Eps -> (R.bot a, true, R.bot a)
  | R.Chars _ -> (n, false, R.bot a)
  | R.Alt xs ->
    (* leaves in branch order; the first accepting branch
       contributes the accept, later branches land in post *)
    let rec go = function
      | [] -> (R.bot a, false, R.bot a)
      | x :: rest ->
        let x0, xa, x1 = split_at ctx x p in
        if xa then (x0, true, R.alt a (x1 :: rest))
        else
          let r0, ra, r1 = go rest in
          (R.alt a [ x0; r0 ], ra, r1)
    in
    go xs
  | R.Cat (x, y) ->
    if nullable_at ctx x p && nullable_at ctx y p then begin
      (* leaves: (x-pre . y) ++ y's own leaves ++ (x-post . y) *)
      let x0, _, x1 = split_at ctx x p in
      let y0, _, y1 = split_at ctx y p in
      ( R.alt a [ R.cat a x0 y; y0 ],
        true,
        R.alt a [ y1; R.cat a x1 y ] )
    end
    else (n, false, R.bot a)
  | R.Rep (x, lo, hi, greedy) ->
    if lo > 0 then
      (* unroll one mandatory copy; the Cat rule orders the rest *)
      split_at ctx
        (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) greedy))
        p
    else begin
      let tail = R.rep a x 0 (R.pred_opt hi) greedy in
      if greedy then
        if nullable_at ctx x p then begin
          (* the body's first zero-width leaf exits the loop (PCRE
             cutoff) — that exit is the Rep's epsilon-accept; body
             leaves after it still loop *)
          let x0, _, x1 = split_at ctx x p in
          (R.cat a x0 tail, true, R.cat a x1 tail)
        end
        else (R.cat a x tail, true, R.bot a)
      else if nullable_at ctx x p then begin
        (* lazy: exit first; zero-width iterations are pruned, so
           only the body's consuming leaves remain after it *)
        let x0, _, x1 = split_at ctx x p in
        (R.bot a, true, R.cat a (R.alt a [ x0; x1 ]) tail)
      end
      else (R.bot a, true, R.cat a x tail)
    end
  | R.And _ | R.Not _ ->
    (* set semantics: prefer-continue — the accept ranks below every
       consuming continuation, giving longest preference. r minus
       eps via (r & ?~eps); its derivative reduces to d r because
       d (?~eps) is the universal node, dropped by [inter]. *)
    if nullable_at ctx n p then
      (R.inter a [ n; R.neg a (R.eps a) ], true, R.bot a)
    else (n, false, R.bot a)
  | R.Look (l, body) -> (R.bot a, eval_look ctx l body p, R.bot a)

and deriv_at ctx (n : R.node) (p : int) (c : char) : R.node =
  if n.R.look_free then begin
    let d = R.find_deriv ctx.a n c in
    if d != R.unknown then d
    else begin
      let d = deriv_step ctx n p c in
      R.add_deriv ctx.a n c d;
      d
    end
  end
  else
    let k = (key ctx n p * 256) + Char.code c in
    match Memo.find_opt ctx.memo.der k with
    | Some d -> d
    | None ->
      let d = deriv_step ctx n p c in
      Memo.replace ctx.memo.der k d;
      d

and deriv_step ctx (n : R.node) (p : int) (c : char) : R.node =
  let a = ctx.a in
  match n.R.desc with
  | R.Bot | R.Eps | R.Look _ -> R.bot a
  | R.Chars s -> if Charset.mem c s then R.eps a else R.bot a
  | R.Alt xs -> R.alt a (List.map (fun x -> deriv_at ctx x p c) xs)
  | R.And xs -> R.inter a (List.map (fun x -> deriv_at ctx x p c) xs)
  | R.Not x -> R.neg a (deriv_at ctx x p c)
  | R.Cat (x, y) ->
    if nullable_at ctx x p then begin
      let x0, _, x1 = split_at ctx x p in
      R.alt a
        [ R.cat a (deriv_at ctx x0 p c) y;
          deriv_at ctx y p c;
          R.cat a (deriv_at ctx x1 p c) y ]
    end
    else R.cat a (deriv_at ctx x p c) y
  | R.Rep (x, lo, hi, greedy) ->
    if lo > 0 then
      deriv_at ctx
        (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) greedy))
        p c
    else
      (* d x covers the body's pre- and post-accept consuming
         leaves in order; the zero-width leaf contributes nothing
         to a derivative *)
      R.cat a (deriv_at ctx x p c) (R.rep a x 0 (R.pred_opt hi) greedy)

(* A per-scan context of [eng] over [input]. A flat engine builds every
   lookaround table up front — each an O(n) pass — and folds them into
   the per-position masks its memo is keyed by. *)
let make_ctx eng input =
  let n = String.length input in
  let tables = Hashtbl.create 4 in
  match eng.looks with
  | None ->
    { a = eng.arena; input; memo = new_memo 64; masks = None;
      stride = n + 1; tables }
  | Some looks ->
    let ctx =
      { a = eng.arena; input; memo = eng.flat_memo; masks = None;
        stride = 256; tables }
    in
    let masks = Bytes.make (n + 1) '\000' in
    Array.iteri
      (fun i (behind, body) ->
         let table = look_table ctx behind body in
         for p = 0 to n do
           if Bytes.unsafe_get table p <> '\000' then
             Bytes.unsafe_set masks p
               (Char.unsafe_chr
                  (Char.code (Bytes.unsafe_get masks p) lor (1 lsl i)))
         done)
      looks;
    { ctx with masks = Some masks }

(* Derivative of a look-free node, position-independent (used by
   Enumerate and the mid-end lowering). *)
let deriv_free arena (n : R.node) (c : char) : R.node =
  if not n.R.look_free then
    invalid_arg "Derivative.Engine.deriv_free: node contains lookarounds";
  (* a look-free node never reads the memo or the tables *)
  let ctx =
    { a = arena; input = ""; memo = new_memo 1; masks = None; stride = 1;
      tables = Hashtbl.create 1 }
  in
  deriv_at ctx n 0 c

(* --- Matching drivers ---------------------------------------------------- *)

let match_at_ctx ctx (root : R.node) (start : int) : int option =
  let n = String.length ctx.input in
  let rec go state best p =
    let pre, acc, _post = split_at ctx state p in
    let best = if acc then Some p else best in
    let state = if acc then pre else state in
    if R.is_bot state || p >= n then best
    else go (deriv_at ctx state p ctx.input.[p]) best (p + 1)
  in
  go root None start

let match_at eng input start =
  if start < 0 || start > String.length input then
    invalid_arg "Derivative.Engine.match_at: start";
  Mutex.protect (R.lock eng.arena) (fun () ->
      match_at_ctx (make_ctx eng input) eng.root start)

(* The smallest start >= [start] that the skip table cannot rule out,
   or [n + 1] when none is left (a root that is never nullable cannot
   match the empty string at end of input). *)
let next_start eng input start =
  match eng.starts with
  | None -> start
  | Some table ->
    let n = String.length input in
    let rec go s =
      if s >= n then n + 1
      else if Bytes.unsafe_get table (Char.code (String.unsafe_get input s))
              <> '\000'
      then s
      else go (s + 1)
    in
    go start

let search_ctx eng ctx from : Semantics.span option =
  let input = ctx.input in
  let n = String.length input in
  let rec scan start =
    let start = next_start eng input start in
    if start > n then None
    else
      match match_at_ctx ctx eng.root start with
      | Some stop -> Some { Semantics.start; stop }
      | None -> scan (start + 1)
  in
  scan (max 0 from)

let search ?(from = 0) eng input : Semantics.span option =
  Mutex.protect (R.lock eng.arena) (fun () ->
      search_ctx eng (make_ctx eng input) from)

(* One context for the whole scan: its memo entries and lookaround
   tables depend only on the input, so they stay valid across hits. *)
let find_all eng input : Semantics.span list =
  Mutex.protect (R.lock eng.arena) (fun () ->
      let ctx = make_ctx eng input in
      let rec go from acc =
        match search_ctx eng ctx from with
        | None -> List.rev acc
        | Some span -> go (Semantics.next_scan_position span) (span :: acc)
      in
      go 0 [])

let matches eng input = Option.is_some (search eng input)
