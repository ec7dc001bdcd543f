(* Workload inputs. The rule corpora are fixed sampler draws (the same
   seeds the repository's own ruleset tests and bench use), so every
   run scans the same rules; the workload seed generates only what the
   rules run against. *)

module Rng = Alveare_workloads.Rng
module Sampler = Alveare_workloads.Sampler

type family = {
  fname : string;
  patterns : string list;
}

(* PowerEN, Protomata and Snort, 200 rules each (paper §7.2). *)
let families =
  lazy
    [ { fname = "powren";
        patterns = Alveare_workloads.Powren.patterns (Rng.create 11) 200 };
      { fname = "protomata";
        patterns = Alveare_workloads.Protomata.patterns (Rng.create 12) 200 };
      { fname = "snort";
        patterns = Alveare_workloads.Snort.patterns (Rng.create 13) 200 } ]

let tagged fam = List.mapi (fun i p -> (Printf.sprintf "%s-%d" fam.fname i, p))

let sampler_specs () =
  List.concat_map (fun f -> tagged f f.patterns) (Lazy.force families)

(* The 16 extended-dialect policy rules. *)
let policy_specs () =
  Alveare_workloads.Policy.patterns (Rng.create 31) 16
  |> List.mapi (fun i p -> (Printf.sprintf "policy-%d" i, p))

(* The served ruleset: 16 Snort rules. *)
let serve_specs () =
  Alveare_workloads.Snort.patterns (Rng.create 22) 16
  |> List.mapi (fun i p -> (Printf.sprintf "snort-%d" i, p))

(* Bytes outside every sampler rule's first set and extracted literal
   set: background made of these never starts an attempt, so a scan
   over it is pure sweep. [Library] re-checks this against the compiled
   rules before it trusts the workload. *)
let cold_bytes = "!\"#$%&'()*+,;<>?@[]^`{|}~\\"

type plant = {
  rule : int;  (** index into the ruleset's rule array *)
  pos : int;
  witness : string;
}

type request = {
  data : string;
  plants : plant list;
}

(* Fill [size] bytes from [background] and overwrite a witness of a
   randomly chosen rule in [rules] (index, AST) roughly every
   [every] bytes. Unlike [Streams.generate] this records which rule
   each witness belongs to, so a scan can be checked to hit it. *)
let request rng ~size ~background ~every rules =
  let buf = Bytes.init size (fun _ -> background rng) in
  let rules = Array.of_list rules in
  let rec go pos acc =
    let site = pos + every + Rng.range rng (-(every / 4)) (every / 4) in
    let rule, ast = rules.(Rng.int rng (Array.length rules)) in
    let witness = Sampler.sample rng ast in
    let len = String.length witness in
    if site + len > size then List.rev acc
    else if len = 0 then go site acc
    else begin
      Bytes.blit_string witness 0 buf site len;
      go (site + len) ({ rule; pos = site; witness } :: acc)
    end
  in
  let plants = if Array.length rules = 0 then [] else go 0 [] in
  { data = Bytes.to_string buf; plants }

let cold_char rng = Rng.char_of rng cold_bytes
