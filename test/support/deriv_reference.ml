(* Reference matcher for the derivative engine: the straightforward
   matcher that {!Alveare_derivative.Engine} is differentially tested
   against. It tries every start position, builds a fresh memo table for
   every search, decides (?<=r) by trying every start 0..p and (?=r) by
   walking forward from p — quadratic in the input, so it only suits
   short test inputs. It shares the engine's node constructors
   ({!Alveare_derivative.Regex}) and its priority-faithful split and
   derivative rules (see engine.ml), but none of its caches, tables or
   start skipping: all memoisation is local to one search, keyed
   (node id, position). *)

open Alveare_frontend
module R = Alveare_derivative.Regex
module Semantics = Alveare_engine.Semantics

type t = { arena : R.t; root : R.node }

let of_ast ast =
  let arena = R.create () in
  { arena; root = Mutex.protect (R.lock arena) (fun () -> R.of_ast arena ast) }

type ctx = {
  a : R.t;
  input : string;
  nul : (int * int, bool) Hashtbl.t;
  spl : (int * int, R.node * bool * R.node) Hashtbl.t;
  der : (int * int, R.node) Hashtbl.t;
}

let make_ctx a input =
  { a; input;
    nul = Hashtbl.create 64;
    spl = Hashtbl.create 64;
    der = Hashtbl.create 64 }

let memo table key compute =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace table key v;
    v

let rec nullable_at ctx (n : R.node) p =
  if n.R.look_free then n.R.null
  else
    memo ctx.nul (n.R.id, p) (fun () ->
        match n.R.desc with
        | R.Look (l, body) -> eval_look ctx l body p
        | R.Cat (x, y) -> nullable_at ctx x p && nullable_at ctx y p
        | R.Alt xs -> List.exists (fun x -> nullable_at ctx x p) xs
        | R.And xs -> List.for_all (fun x -> nullable_at ctx x p) xs
        | R.Not x -> not (nullable_at ctx x p)
        | R.Rep (x, lo, _, _) -> lo = 0 || nullable_at ctx x p
        | R.Bot | R.Eps | R.Chars _ -> n.R.null)

and eval_look ctx (l : Ast.look) body p =
  let holds =
    if l.Ast.behind then match_ending_at ctx body p
    else match_starting_at ctx body p
  in
  if l.Ast.negative then not holds else holds

(* (?=r): the body matches input[p..e) for some e. *)
and match_starting_at ctx body p =
  let n = String.length ctx.input in
  let rec go state q =
    nullable_at ctx state q
    || ((not (R.is_bot state)) && q < n
        && go (deriv_at ctx state q ctx.input.[q]) (q + 1))
  in
  go body p

(* (?<=r): the body matches input[s..p) exactly for some s <= p. *)
and match_ending_at ctx body p =
  let rec exact state q =
    if q = p then nullable_at ctx state q
    else
      (not (R.is_bot state))
      && exact (deriv_at ctx state q ctx.input.[q]) (q + 1)
  in
  let rec try_start s = s <= p && (exact body s || try_start (s + 1)) in
  try_start 0

and split_at ctx (n : R.node) p =
  memo ctx.spl (n.R.id, p) (fun () ->
      let a = ctx.a in
      match n.R.desc with
      | R.Bot -> (n, false, n)
      | R.Eps -> (R.bot a, true, R.bot a)
      | R.Chars _ -> (n, false, R.bot a)
      | R.Alt xs ->
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
          let x0, _, x1 = split_at ctx x p in
          let y0, _, y1 = split_at ctx y p in
          (R.alt a [ R.cat a x0 y; y0 ], true, R.alt a [ y1; R.cat a x1 y ])
        end
        else (n, false, R.bot a)
      | R.Rep (x, lo, hi, greedy) ->
        if lo > 0 then
          split_at ctx
            (R.cat a x (R.rep a x (lo - 1) (R.pred_opt hi) greedy))
            p
        else begin
          let tail = R.rep a x 0 (R.pred_opt hi) greedy in
          if greedy then
            if nullable_at ctx x p then begin
              let x0, _, x1 = split_at ctx x p in
              (R.cat a x0 tail, true, R.cat a x1 tail)
            end
            else (R.cat a x tail, true, R.bot a)
          else if nullable_at ctx x p then begin
            let x0, _, x1 = split_at ctx x p in
            (R.bot a, true, R.cat a (R.alt a [ x0; x1 ]) tail)
          end
          else (R.bot a, true, R.cat a x tail)
        end
      | R.And _ | R.Not _ ->
        if nullable_at ctx n p then
          (R.inter a [ n; R.neg a (R.eps a) ], true, R.bot a)
        else (n, false, R.bot a)
      | R.Look (l, body) -> (R.bot a, eval_look ctx l body p, R.bot a))

and deriv_at ctx (n : R.node) p c =
  memo ctx.der (n.R.id, p) (fun () ->
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
        else R.cat a (deriv_at ctx x p c) (R.rep a x 0 (R.pred_opt hi) greedy))

(* Leftmost-first end of the match beginning exactly at [start]. *)
let match_at_ctx ctx root start =
  let n = String.length ctx.input in
  let rec go state best p =
    let pre, acc, _ = split_at ctx state p in
    let best = if acc then Some p else best in
    let state = if acc then pre else state in
    if R.is_bot state || p >= n then best
    else go (deriv_at ctx state p ctx.input.[p]) best (p + 1)
  in
  go root None start

let search ?(from = 0) t input =
  let n = String.length input in
  Mutex.protect (R.lock t.arena) (fun () ->
      let ctx = make_ctx t.arena input in
      let rec scan start =
        if start > n then None
        else
          match match_at_ctx ctx t.root start with
          | Some stop -> Some { Semantics.start; stop }
          | None -> scan (start + 1)
      in
      scan (max 0 from))

let find_all t input =
  let rec go from acc =
    match search ~from t input with
    | None -> List.rev acc
    | Some span -> go (Semantics.next_scan_position span) (span :: acc)
  in
  go 0 []

let match_at t input start =
  Mutex.protect (R.lock t.arena) (fun () ->
      match_at_ctx (make_ctx t.arena input) t.root start)
