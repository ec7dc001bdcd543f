(* Spans recorded by the traced run, around the benchmark's own calls
   into each layer's public functions (the program itself is not
   instrumented). Spans are kept in memory and written out when the run
   ends; a layer's self time is its spans' durations minus the part
   covered by their child spans. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  request : int;  (** spans of one request share this *)
  layer : string;
  name : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let log : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []
let current_request = ref 0

let clock () = Unix.gettimeofday ()

let with_span layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id = !next_id; parent; request = !current_request; layer; name;
        t0 = clock (); t1 = 0.0 }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
          s.t1 <- clock ();
          stack := List.tl !stack;
          log := s :: !log)
      f
  end

let start_request k = current_request := k

let reset () =
  log := [];
  stack := [];
  next_id := 0

(* Self time per layer (seconds) and per (layer, name), over the spans
   of the requests [keep] selects. *)
let self_times ?(keep = fun _ -> true) () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace children s.parent
           ((s.t1 -. s.t0)
            +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    !log;
  let by_layer = Hashtbl.create 16 and by_name = Hashtbl.create 64 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
       if keep s.request then begin
         let self =
           (s.t1 -. s.t0)
           -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
         in
         bump by_layer s.layer self;
         bump by_name (s.layer ^ "." ^ s.name) self
       end)
    !log;
  (by_layer, by_name)

let self_of tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\trequest\tlayer\tname\tstart_s\tstop_s\n";
  List.iter
    (fun s ->
       Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\n" s.id s.parent
         s.request s.layer s.name s.t0 s.t1)
    (List.rev !log);
  close_out oc
