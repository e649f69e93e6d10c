(* modular: compress a network module-by-module, each module under its
   own budget slice and BDD manager, with per-module fault isolation.
   The spec multiwan-stream:R:S synthesizes and compresses an R-region
   WAN one module at a time without materializing the whole network. *)

type params = {
  network : string;
  mode : Modular.mode;
  count : int option;  (** target module count for [Auto] *)
  certify : bool;  (** self-audit each module; a refutation is a fault *)
  inject_fault : string list;  (** modules forced onto a 1-tick budget *)
}

type result = {
  spec : string;
  warm : bool;  (** answered from a warm state *)
  state : Modular.state option;  (** [None] for a streamed run *)
  report : Modular.report;
  quarantined : string list;  (** modules a self-audit refuted *)
}

let of_state ~warm spec st =
  { spec; warm; state = Some st; report = Modular.report st; quarantined = [] }

let run ~budget ?retry_pause ?warm ~resolve (p : params) =
  Op.catch @@ fun () ->
  match (warm, String.split_on_char ':' p.network) with
  | Some st, _ -> of_state ~warm:true p.network st
  | None, [ "multiwan-stream"; r; s ] -> (
    match (int_of_string_opt r, int_of_string_opt s) with
    | Some regions, Some region_size ->
      let report =
        Op.ok_exn
          (Modular.run_stream ~budget ~certify:p.certify
             ~inject_fault:p.inject_fault ?retry_pause ~count:regions
             (Synthesis.multiwan_stream ~regions ~region_size))
      in
      { spec = p.network; warm = false; state = None; report; quarantined = [] }
    | _ -> raise (Op.Usage "multiwan-stream spec is multiwan-stream:REGIONS:SIZE"))
  | None, _ ->
    of_state ~warm:false p.network
      (Op.ok_exn
         (Modular.run ~mode:p.mode ?count:p.count ~budget ~certify:p.certify
            ~inject_fault:p.inject_fault ?retry_pause (resolve p.network)))

let refuted t =
  List.exists
    (fun (mr : Modular.module_report) -> mr.Modular.mr_health = Modular.Refuted)
    t.report.Modular.rp_modules

(* No wall-clock: the chaos suite diffs these rows byte-for-byte. *)
let to_json t =
  let rp = t.report in
  let module_json (mr : Modular.module_report) =
    Json.Obj
      ([
         ("module", Op.str mr.Modular.mr_name);
         ("routers", Json.Int mr.Modular.mr_routers);
         ("ecs", Json.Int mr.Modular.mr_ecs);
         ("concrete", Json.Int mr.Modular.mr_concrete);
         ("abstract", Json.Int mr.Modular.mr_abstract);
         ("health", Op.str (Modular.health_name mr.Modular.mr_health));
       ]
      @
      match mr.Modular.mr_detail with
      | Some d -> [ ("detail", Op.str d) ]
      | None -> [])
  in
  Json.Obj
    [
      ("network", Op.str t.spec);
      ("warm", Json.Bool t.warm);
      ("modules", Op.list module_json rp.Modular.rp_modules);
      ("routers", Json.Int rp.Modular.rp_routers);
      ("skipped_anycast", Json.Int rp.Modular.rp_skipped_anycast);
      ("faulted", Json.Bool (Modular.any_fault rp));
      ("quarantined", Op.list Op.str t.quarantined);
    ]

let pp ppf t = Format.fprintf ppf "%a%!" Modular.pp_report t.report
