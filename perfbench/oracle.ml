(* Output checks that share no code with the paths they check.

   Plain rules: the PCRE-ordered backtracking oracle, run only at
   offsets whose byte can start a match (a first set computed here
   from the source AST, not the library's prefilter).

   Extended rules: a membership interpreter with set-of-end-positions
   semantics over the source AST, lookarounds as predicates on
   absolute positions of the whole input. It never touches
   lib/derivative; it decides whether one reported span is in its
   rule's language. *)

module Ast = Alveare_frontend.Ast
module Sem = Alveare_engine.Semantics

(* Bytes that can start a non-empty match, and whether the empty
   string matches (then every offset must be tried). *)
let rec first (r : Ast.t) (set : Bytes.t) : bool =
  let add c = Bytes.set set (Char.code c) '\001' in
  match r with
  | Ast.Empty -> true
  | Ast.Char c -> add c; false
  | Ast.Class cc ->
    for b = 0 to 255 do
      if Sem.class_mem cc (Char.chr b) then add (Char.chr b)
    done;
    false
  | Ast.Any ->
    Bytes.fill set 0 256 '\001';
    false
  | Ast.Group r -> first r set
  | Ast.Repeat (r, q) -> first r set || q.Ast.qmin = 0
  | Ast.Alt rs -> List.fold_left (fun acc r -> first r set || acc) false rs
  | Ast.Concat rs ->
    let rec go = function
      | [] -> true
      | r :: rest -> if first r set then go rest else false
    in
    go rs
  | Ast.Inter _ | Ast.Negate _ | Ast.Look _ ->
    (* extended operators: claim everything *)
    Bytes.fill set 0 256 '\001';
    true

let first_set ast =
  let set = Bytes.make 256 '\000' in
  let nullable = first ast set in
  (set, nullable)

(* [Backtrack.find_all] with a first-set skip: identical spans, since an
   offset whose byte is outside the first set of a non-nullable pattern
   cannot start a match. *)
let find_all ast input =
  let set, nullable = first_set ast in
  let n = String.length input in
  let rec go pos acc =
    let rec skip p =
      if p < n && Bytes.unsafe_get set (Char.code (String.unsafe_get input p)) = '\000'
      then skip (p + 1)
      else p
    in
    let pos = if nullable then pos else skip pos in
    if pos > n || (pos = n && not nullable) then List.rev acc
    else
      match Alveare_engine.Backtrack.match_at ast input pos with
      | Some stop ->
        let span = { Sem.start = pos; stop } in
        go (Sem.next_scan_position span) (span :: acc)
      | None -> go (pos + 1) acc
  in
  go 0 []

(* --- Membership ------------------------------------------------------ *)

module IS = Set.Make (Int)

let rec ends input ~hi (r : Ast.t) (starts : IS.t) : IS.t =
  let n = String.length input in
  let step pred =
    IS.fold
      (fun i acc -> if i < hi && i < n && pred input.[i] then IS.add (i + 1) acc else acc)
      starts IS.empty
  in
  match r with
  | Ast.Empty -> starts
  | Ast.Char c -> step (Char.equal c)
  | Ast.Class cc -> step (Sem.class_mem cc)
  | Ast.Any -> step (fun c -> c <> '\n')
  | Ast.Group r -> ends input ~hi r starts
  | Ast.Concat rs -> List.fold_left (fun s r -> ends input ~hi r s) starts rs
  | Ast.Alt rs ->
    List.fold_left (fun acc r -> IS.union acc (ends input ~hi r starts)) IS.empty rs
  | Ast.Repeat (r, q) ->
    let rec mandatory k s = if k = 0 then s else mandatory (k - 1) (ends input ~hi r s) in
    let base = mandatory q.Ast.qmin starts in
    let rec more k frontier acc =
      let bounded = match q.Ast.qmax with Some m -> k >= m | None -> false in
      if bounded || IS.is_empty frontier then acc
      else
        let next = ends input ~hi r frontier in
        let fresh = IS.diff next acc in
        more (k + 1) fresh (IS.union acc next)
    in
    more q.Ast.qmin base base
  | Ast.Inter rs ->
    IS.fold
      (fun i acc ->
         let one = IS.singleton i in
         match rs with
         | [] -> acc
         | r :: rest ->
           IS.union acc
             (List.fold_left
                (fun s r -> IS.inter s (ends input ~hi r one))
                (ends input ~hi r one) rest))
      starts IS.empty
  | Ast.Negate r ->
    IS.fold
      (fun i acc ->
         let inside = ends input ~hi r (IS.singleton i) in
         let all = IS.of_list (List.init (max 0 (hi - i + 1)) (fun k -> i + k)) in
         IS.union acc (IS.diff all inside))
      starts IS.empty
  | Ast.Look (look, body) ->
    IS.filter (fun i -> holds input look body i <> look.Ast.negative) starts

(* A lookaround sees the whole input, not just the checked span. *)
and holds input (look : Ast.look) body i =
  let n = String.length input in
  if not look.Ast.behind then
    not (IS.is_empty (ends input ~hi:n body (IS.singleton i)))
  else
    let lo =
      match Ast.max_match_length body with
      | Some m -> max 0 (i - m)
      | None -> 0
    in
    let rec try_from k =
      k <= i && (IS.mem i (ends input ~hi:i body (IS.singleton k)) || try_from (k + 1))
    in
    try_from lo

(* Is [input.[start, stop)] in the language of [ast]? *)
let accepts ast input (s : Sem.span) =
  IS.mem s.Sem.stop (ends input ~hi:s.Sem.stop ast (IS.singleton s.Sem.start))

(* A planted witness at [pos, pos+len) is hit when some reported span
   starts inside it or covers its first byte. *)
let witness_hit spans ~pos ~len =
  List.exists
    (fun (s : Sem.span) ->
       (s.Sem.start >= pos && s.Sem.start < pos + len)
       || (s.Sem.start < pos && s.Sem.stop > pos))
    spans
