(* Hash-consed regular-expression nodes for the Brzozowski-derivative
   engine — the semantic oracle for the extended operators (intersection,
   complement, lookarounds) that the speculative ISA cannot execute
   natively.

   Nodes live in an arena: structurally identical sub-expressions intern
   to one physical node, so the per-node derivative and split caches key
   on the integer id and the state space explored by a match stays
   small (Brzozowski's finiteness argument needs the Antimirov-style
   smart constructors below: flattening, identity laws, neutral/absorbing
   element removal, duplicate elimination).

   Priority discipline, because every law must preserve PCRE
   leftmost-FIRST semantics (the Backtrack oracle), not just language:

   - [Alt] lists keep their order and deduplicate keeping the FIRST
     occurrence (an identical later branch retries everything the
     earlier one already tried with the same continuation). They are
     never sorted.
   - [And] members ARE sorted by id (intersection carries set semantics
     — its match preference is prefer-continue, independent of member
     order), and a single-member [And [x]] keeps its wrapper: collapsing
     it to [x] would swap prefer-continue (longest) preference for [x]'s
     own backtracking order.
   - [Not (Not x)] is NOT collapsed to [x], for the same reason: the
     double complement preserves [x]'s language but gives it
     prefer-continue preference.

   The [null] field caches nullability and the arena caches split /
   derivative results — but only for [look_free] nodes: lookarounds make
   all three position-dependent, so look-bearing nodes are memoised in
   {!Engine}, and a look-free lookaround body is decided by one truth
   table per scan (see there). *)

open Alveare_frontend

type node = {
  id : int;
  desc : desc;
  look_free : bool; (* no Look anywhere below *)
  null : bool;      (* matches the empty string; valid iff [look_free] *)
}

and desc =
  | Bot                                     (* matches nothing *)
  | Eps                                     (* the empty string only *)
  | Chars of Charset.t                      (* one byte from the set *)
  | Cat of node * node                      (* right-nested *)
  | Alt of node list                        (* ordered: priority order *)
  | And of node list                        (* intersection, id-sorted *)
  | Not of node                             (* complement *)
  | Rep of node * int * int option * bool   (* body, qmin, qmax, greedy *)
  | Look of Ast.look * node                 (* zero-width predicate *)

(* Structural interning key: children by id, classes by their canonical
   sorted-disjoint range list. *)
type key =
  | KBot
  | KEps
  | KChars of (int * int) list
  | KCat of int * int
  | KAlt of int list
  | KAnd of int list
  | KNot of int
  | KRep of int * int * int option * bool
  | KLook of bool * bool * int

(* The split and derivative caches are dense, indexed by node id (ids
   are allocated consecutively): a cached derivative is two array
   loads, no hashing — the derivative engine's inner loop. *)
type t = {
  cons : (key, node) Hashtbl.t;
  mutable next_id : int;
  mutable splits : (node * bool * node) option array; (* look-free only *)
  mutable derivs : node array array;
      (* look-free only: 256 slots per node, [||] before its first
         derivative, [unknown] in slots not yet computed *)
  lock : Mutex.t;
      (* serialises interning and cache access so one compiled pattern
         can be scanned from several domains *)
}

let create () =
  { cons = Hashtbl.create 64;
    next_id = 0;
    splits = Array.make 64 None;
    derivs = Array.make 64 [||];
    lock = Mutex.create () }

let size a = a.next_id
let lock a = a.lock

(* Never interned: marks a derivative slot not computed yet. *)
let unknown = { id = -1; desc = Bot; look_free = true; null = false }

let find_split a n = a.splits.(n.id)
let add_split a n split = a.splits.(n.id) <- Some split

let find_deriv a n c =
  let row = a.derivs.(n.id) in
  if Array.length row = 0 then unknown else Array.unsafe_get row (Char.code c)

let add_deriv a n c d =
  if Array.length a.derivs.(n.id) = 0 then
    a.derivs.(n.id) <- Array.make 256 unknown;
  a.derivs.(n.id).(Char.code c) <- d

let key_of = function
  | Bot -> KBot
  | Eps -> KEps
  | Chars s -> KChars (Charset.ranges s)
  | Cat (x, y) -> KCat (x.id, y.id)
  | Alt xs -> KAlt (List.map (fun x -> x.id) xs)
  | And xs -> KAnd (List.map (fun x -> x.id) xs)
  | Not x -> KNot x.id
  | Rep (x, lo, hi, g) -> KRep (x.id, lo, hi, g)
  | Look (l, x) -> KLook (l.Ast.behind, l.Ast.negative, x.id)

let null_of = function
  | Bot | Chars _ -> false
  | Eps -> true
  | Cat (x, y) -> x.null && y.null
  | Alt xs -> List.exists (fun x -> x.null) xs
  | And xs -> List.for_all (fun x -> x.null) xs
  | Not x -> not x.null
  | Rep (_, 0, _, _) -> true
  | Rep (x, _, _, _) -> x.null
  | Look _ -> true (* placeholder — look-bearing nullability is
                      position-dependent and resolved in Engine *)

let look_free_of = function
  | Bot | Eps | Chars _ -> true
  | Cat (x, y) -> x.look_free && y.look_free
  | Alt xs | And xs -> List.for_all (fun x -> x.look_free) xs
  | Not x | Rep (x, _, _, _) -> x.look_free
  | Look _ -> false

(* Intern [desc]; assumes the arena lock is held by the caller (all the
   public entry points in Engine/Enumerate take it once). *)
let mk a desc =
  let key = key_of desc in
  match Hashtbl.find_opt a.cons key with
  | Some n -> n
  | None ->
    let n =
      { id = a.next_id; desc; look_free = look_free_of desc;
        null = null_of desc }
    in
    a.next_id <- a.next_id + 1;
    Hashtbl.add a.cons key n;
    let cap = Array.length a.splits in
    if a.next_id > cap then begin
      a.splits <- Array.append a.splits (Array.make cap None);
      a.derivs <- Array.append a.derivs (Array.make cap [||])
    end;
    n

(* --- Smart constructors ------------------------------------------------- *)

let bot a = mk a Bot
let eps a = mk a Eps

let is_bot n = match n.desc with Bot -> true | _ -> false
let is_eps n = match n.desc with Eps -> true | _ -> false
let is_top n = match n.desc with Not b -> is_bot b | _ -> false

let chars a set = if Charset.is_empty set then bot a else mk a (Chars set)

let rec cat a x y =
  if is_bot x || is_bot y then bot a
  else if is_eps x then y
  else if is_eps y then x
  else
    match x.desc with
    | Cat (u, v) -> cat a u (cat a v y) (* keep right-nested *)
    | _ -> mk a (Cat (x, y))

(* Ordered union: flatten, drop never-matching members, deduplicate
   keeping the FIRST occurrence. *)
let alt a xs =
  let rec flatten acc = function
    | [] -> List.rev acc
    | x :: rest ->
      (match x.desc with
       | Bot -> flatten acc rest
       | Alt ys -> flatten acc (ys @ rest)
       | _ ->
         if List.exists (fun y -> y.id = x.id) acc then flatten acc rest
         else flatten (x :: acc) rest)
  in
  match flatten [] xs with
  | [] -> bot a
  | [ one ] -> one
  | members -> mk a (Alt members)

let top a = mk a (Not (bot a))

(* Intersection: flatten, drop the universal member, absorb on a
   never-matching member, sort by id (set semantics), deduplicate. A
   singleton [And [x]] keeps its wrapper — see the header. *)
let inter a xs =
  let rec flatten acc = function
    | [] -> Some acc
    | x :: rest ->
      (match x.desc with
       | Bot -> None
       | And ys -> flatten acc (ys @ rest)
       | _ -> if is_top x then flatten acc rest else flatten (x :: acc) rest)
  in
  match flatten [] xs with
  | None -> bot a
  | Some members ->
    let members = List.sort_uniq (fun x y -> compare x.id y.id) members in
    (match members with
     | [] -> top a
     | members -> mk a (And members))

(* No [Not (Not x)] collapse — see the header. *)
let neg a x = mk a (Not x)

let pred_opt = function None -> None | Some m -> Some (m - 1)

let rep a x lo hi greedy =
  if hi = Some 0 then eps a
  else if is_eps x then eps a
  else if is_bot x then (if lo = 0 then eps a else bot a)
  else if lo = 1 && hi = Some 1 then x
  else mk a (Rep (x, lo, hi, greedy))

(* Zero-width predicates with constant bodies decide immediately:
   [(?=eps)] always holds, [(?!eps)] never; an impossible body flips
   with negation. Exact for lookbehind too ([s = p] witnesses eps). *)
let look a (l : Ast.look) x =
  if is_eps x then (if l.Ast.negative then bot a else eps a)
  else if is_bot x then (if l.Ast.negative then eps a else bot a)
  else mk a (Look (l, x))

(* --- From the frontend AST ---------------------------------------------- *)

let class_set cls = Alveare_engine.Semantics.class_set cls

let rec of_ast a (t : Ast.t) : node =
  match t with
  | Ast.Empty -> eps a
  | Ast.Char c -> chars a (Charset.singleton c)
  | Ast.Any -> chars a (class_set Desugar.dot_class)
  | Ast.Class cls -> chars a (class_set cls)
  | Ast.Group x -> of_ast a x
  | Ast.Concat xs ->
    List.fold_right (fun x acc -> cat a (of_ast a x) acc) xs (eps a)
  | Ast.Alt xs -> alt a (List.map (of_ast a) xs)
  | Ast.Repeat (x, q) -> rep a (of_ast a x) q.Ast.qmin q.Ast.qmax q.Ast.greedy
  | Ast.Inter xs -> inter a (List.map (of_ast a) xs)
  | Ast.Negate x -> neg a (of_ast a x)
  | Ast.Look (l, x) -> look a l (of_ast a x)

(* --- First-byte over-approximation -------------------------------------- *)

let full_set =
  Charset.complement ~alphabet_size:Alveare_engine.Semantics.byte_universe
    Charset.empty

(* Charset intersection by merging the sorted disjoint range lists
   (Charset itself only exposes union/complement). *)
let charset_inter (x : Charset.t) (y : Charset.t) : Charset.t =
  let rec go acc rx ry =
    match rx, ry with
    | [], _ | _, [] -> acc
    | (alo, ahi) :: rx', (blo, bhi) :: ry' ->
      let lo = max alo blo and hi = min ahi bhi in
      let acc = if lo <= hi then (lo, hi) :: acc else acc in
      if ahi < bhi then go acc rx' ry
      else if bhi < ahi then go acc rx ry'
      else go acc rx' ry'
  in
  Charset.of_ranges (List.rev (go [] (Charset.ranges x) (Charset.ranges y)))

(* Whether [n] can match the empty string at SOME position — exact on
   look-free nodes (their [null] field), a sound over-approximation on
   look-bearing ones: a lookaround may hold, and a complement of a
   look-bearing node may be nullable wherever its body is not. *)
let rec may_null (n : node) : bool =
  if n.look_free then n.null
  else
    match n.desc with
    | Bot | Chars _ -> false
    | Eps | Look _ | Not _ -> true
    | Cat (x, y) -> may_null x && may_null y
    | Alt xs -> List.exists may_null xs
    | And xs -> List.for_all may_null xs
    | Rep (_, 0, _, _) -> true
    | Rep (x, _, _, _) -> may_null x

(* Bytes that can start a nonempty match, at any position — an
   over-approximation, sound on look-bearing nodes too: a lookaround is
   zero-width (it contributes no byte) and only narrows where its
   neighbours match. {!Enumerate} bounds its byte fan-out with it and
   {!Engine} builds its start-byte skip table from it. *)
let rec first_bytes (n : node) : Charset.t =
  match n.desc with
  | Bot | Eps | Look _ -> Charset.empty
  | Chars s -> s
  | Cat (x, y) ->
    if may_null x then Charset.union (first_bytes x) (first_bytes y)
    else first_bytes x
  | Alt xs ->
    List.fold_left (fun acc x -> Charset.union acc (first_bytes x))
      Charset.empty xs
  | And xs ->
    List.fold_left (fun acc x -> charset_inter acc (first_bytes x)) full_set xs
  | Not _ -> full_set
  | Rep (x, _, _, _) -> first_bytes x

(* --- Reversal ------------------------------------------------------------ *)

(* A look-free node matching exactly the reversed strings of [n]. It
   serves membership only — [Alt] order (priority) is not meaningful on
   the result — which is all a lookahead needs: [(?=b)] holds at [p]
   iff Σ*·rev(b) accepts the reversed suffix input[p..n). *)
let rec reverse a (n : node) : node =
  match n.desc with
  | Bot | Eps | Chars _ -> n
  | Cat (x, y) -> cat a (reverse a y) (reverse a x)
  | Alt xs -> alt a (List.map (reverse a) xs)
  | And xs -> inter a (List.map (reverse a) xs)
  | Not x -> neg a (reverse a x)
  | Rep (x, lo, hi, greedy) -> rep a (reverse a x) lo hi greedy
  | Look _ -> invalid_arg "Derivative.Regex.reverse: lookaround"

(* --- Printing ------------------------------------------------------------ *)

let rec pp ppf (n : node) =
  match n.desc with
  | Bot -> Fmt.string ppf "⊥"
  | Eps -> Fmt.string ppf "ε"
  | Chars s -> Charset.pp ppf s
  | Cat (x, y) -> Fmt.pf ppf "(%a%a)" pp x pp y
  | Alt xs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any "|") pp) xs
  | And xs -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any "&") pp) xs
  | Not x -> Fmt.pf ppf "(?~%a)" pp x
  | Rep (x, lo, hi, greedy) ->
    Fmt.pf ppf "%a{%d,%s}%s" pp x lo
      (match hi with Some h -> string_of_int h | None -> "")
      (if greedy then "" else "?")
  | Look (l, x) -> Fmt.pf ppf "%s%a)" (Ast.look_opener l) pp x
