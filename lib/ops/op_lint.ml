(* lint: every semantic configuration check over one network. *)

type params = {
  network : string;
  compression : bool;  (** include the compression-blocker report *)
  flow : bool;  (** include the route-provenance checks *)
  min_severity : Diag.severity;  (** hide findings below this *)
}

type result = {
  spec : string;
  diags : Diag.t list;  (** every finding, shown or not *)
  shown : Diag.t list;
}

let run ~budget ?locs net (p : params) =
  Op.catch @@ fun () ->
  let diags =
    Lint.run ?locs ~compression:p.compression ~flow:p.flow ~budget net
  in
  { spec = p.network; diags; shown = Lint.filter ~min_severity:p.min_severity diags }

let errors t = Lint.has_errors t.diags

let to_json t =
  Json.Obj
    [
      ("network", Op.str t.spec);
      ("findings", Op.list Op.diag_json t.shown);
      ("count", Json.Int (List.length t.shown));
      ("errors", Json.Bool (errors t));
    ]

let pp ppf t = Lint.pp_text ppf t.shown
