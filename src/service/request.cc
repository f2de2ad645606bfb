#include "service/request.h"

#include <cmath>
#include <map>

namespace schemex::service {

namespace {

using json::Value;

/// Field accessors with "absent = default" semantics but hard type
/// errors: a request that spells a field with the wrong type is rejected
/// rather than silently defaulted.
class Fields {
 public:
  explicit Fields(const std::map<std::string, Value>& obj) : obj_(obj) {}

  util::Status GetString(const std::string& key, std::string* out,
                         bool required = false) const {
    const Value* v = Find(key);
    if (v == nullptr) {
      if (required) return Missing(key);
      return util::Status::OK();
    }
    if (v->kind() != Value::Kind::kString) return WrongType(key, "string");
    *out = v->AsString();
    return util::Status::OK();
  }

  util::Status GetUint(const std::string& key, uint64_t* out) const {
    const Value* v = Find(key);
    if (v == nullptr) return util::Status::OK();
    if (v->kind() != Value::Kind::kNumber || v->AsNumber() < 0 ||
        v->AsNumber() != std::floor(v->AsNumber())) {
      return WrongType(key, "non-negative integer");
    }
    SCHEMEX_RETURN_IF_ERROR(CheckExact(key, v->AsNumber()));
    *out = static_cast<uint64_t>(v->AsNumber());
    return util::Status::OK();
  }

  util::Status GetInt(const std::string& key, int64_t* out) const {
    const Value* v = Find(key);
    if (v == nullptr) return util::Status::OK();
    if (v->kind() != Value::Kind::kNumber ||
        v->AsNumber() != std::floor(v->AsNumber())) {
      return WrongType(key, "integer");
    }
    SCHEMEX_RETURN_IF_ERROR(CheckExact(key, v->AsNumber()));
    *out = static_cast<int64_t>(v->AsNumber());
    return util::Status::OK();
  }

  util::Status GetDouble(const std::string& key, double* out) const {
    const Value* v = Find(key);
    if (v == nullptr) return util::Status::OK();
    if (v->kind() != Value::Kind::kNumber) return WrongType(key, "number");
    *out = v->AsNumber();
    return util::Status::OK();
  }

  util::Status GetBool(const std::string& key, bool* out) const {
    const Value* v = Find(key);
    if (v == nullptr) return util::Status::OK();
    if (v->kind() != Value::Kind::kBool) return WrongType(key, "bool");
    *out = v->AsBool();
    return util::Status::OK();
  }

 private:
  const Value* Find(const std::string& key) const {
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
  }
  static util::Status Missing(const std::string& key) {
    return util::Status::InvalidArgument("missing required field \"" + key +
                                         "\"");
  }
  static util::Status WrongType(const std::string& key, const char* want) {
    return util::Status::InvalidArgument("field \"" + key + "\" must be a " +
                                         want);
  }
  /// Past 2^53 a JSON number (a double) no longer holds the integer the
  /// client wrote, and casting one past 2^63 is undefined.
  static util::Status CheckExact(const std::string& key, double x) {
    constexpr double kMaxExact = 9007199254740992.0;  // 2^53
    if (std::fabs(x) <= kMaxExact) return util::Status::OK();
    return util::Status::InvalidArgument("field \"" + key +
                                         "\" exceeds 2^53 in magnitude");
  }

  const std::map<std::string, Value>& obj_;
};

const std::map<std::string, Value> kEmptyObject;

// Parses the apply_delta "ops" array (required, possibly empty). Fields
// has no array accessor, so the array itself is pulled from the raw
// params object; each element then reuses the Fields machinery.
util::Status ParseDeltaOps(const std::map<std::string, Value>& params,
                           std::vector<DeltaOp>* out) {
  auto it = params.find("ops");
  if (it == params.end()) {
    return util::Status::InvalidArgument("missing required field \"ops\"");
  }
  if (it->second.kind() != Value::Kind::kArray) {
    return util::Status::InvalidArgument("field \"ops\" must be an array");
  }
  const auto& arr = it->second.AsArray();
  out->reserve(arr.size());
  for (size_t i = 0; i < arr.size(); ++i) {
    if (arr[i].kind() != Value::Kind::kObject) {
      return util::Status::InvalidArgument(
          "ops[" + std::to_string(i) + "] must be an object");
    }
    Fields f(arr[i].AsObject());
    DeltaOp op;
    SCHEMEX_RETURN_IF_ERROR(f.GetString("op", &op.op, /*required=*/true));
    if (op.op != "add_object" && op.op != "add_link" && op.op != "del_link") {
      return util::Status::InvalidArgument(
          "ops[" + std::to_string(i) +
          "].op must be \"add_object\", \"add_link\" or \"del_link\"");
    }
    if (op.op == "add_object") {
      SCHEMEX_RETURN_IF_ERROR(f.GetString("kind", &op.kind));
      if (op.kind != "complex" && op.kind != "atomic") {
        return util::Status::InvalidArgument(
            "ops[" + std::to_string(i) +
            "].kind must be \"complex\" or \"atomic\"");
      }
      SCHEMEX_RETURN_IF_ERROR(f.GetString("name", &op.name));
      SCHEMEX_RETURN_IF_ERROR(f.GetString("value", &op.value));
    } else {
      SCHEMEX_RETURN_IF_ERROR(f.GetUint("from", &op.from));
      SCHEMEX_RETURN_IF_ERROR(f.GetUint("to", &op.to));
      SCHEMEX_RETURN_IF_ERROR(
          f.GetString("label", &op.label, /*required=*/true));
    }
    out->push_back(std::move(op));
  }
  return util::Status::OK();
}

}  // namespace

std::string_view VerbToString(Verb v) {
  switch (v) {
    case Verb::kLoadWorkspace:
      return "load_workspace";
    case Verb::kExtract:
      return "extract";
    case Verb::kType:
      return "type";
    case Verb::kQuery:
      return "query";
    case Verb::kStats:
      return "stats";
    case Verb::kListWorkspaces:
      return "list_workspaces";
    case Verb::kApplyDelta:
      return "apply_delta";
    case Verb::kReExtract:
      return "re_extract";
  }
  return "unknown";
}

util::StatusOr<Verb> VerbFromString(std::string_view s) {
  if (s == "load_workspace") return Verb::kLoadWorkspace;
  if (s == "extract") return Verb::kExtract;
  if (s == "type") return Verb::kType;
  if (s == "query") return Verb::kQuery;
  if (s == "stats") return Verb::kStats;
  if (s == "list_workspaces") return Verb::kListWorkspaces;
  if (s == "apply_delta") return Verb::kApplyDelta;
  if (s == "re_extract") return Verb::kReExtract;
  return util::Status::InvalidArgument("unknown verb \"" + std::string(s) +
                                       "\"");
}

util::StatusOr<Request> ParseRequest(const json::Value& v) {
  if (v.kind() != Value::Kind::kObject) {
    return util::Status::InvalidArgument("request must be a JSON object");
  }
  Fields top(v.AsObject());
  Request req;
  SCHEMEX_RETURN_IF_ERROR(top.GetInt("id", &req.id));

  std::string verb;
  SCHEMEX_RETURN_IF_ERROR(top.GetString("verb", &verb, /*required=*/true));
  SCHEMEX_ASSIGN_OR_RETURN(req.verb, VerbFromString(verb));

  SCHEMEX_RETURN_IF_ERROR(top.GetDouble("timeout_s", &req.timeout_s));
  if (req.timeout_s < 0) {
    return util::Status::InvalidArgument("timeout_s must be >= 0");
  }

  const auto& obj = v.AsObject();
  auto params_it = obj.find("params");
  if (params_it != obj.end() &&
      params_it->second.kind() != Value::Kind::kObject) {
    return util::Status::InvalidArgument("\"params\" must be an object");
  }
  Fields params(params_it == obj.end() ? kEmptyObject
                                       : params_it->second.AsObject());

  switch (req.verb) {
    case Verb::kLoadWorkspace:
      SCHEMEX_RETURN_IF_ERROR(
          params.GetString("name", &req.load.name, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(
          params.GetString("dir", &req.load.dir, /*required=*/true));
      break;
    case Verb::kExtract:
      SCHEMEX_RETURN_IF_ERROR(params.GetString(
          "workspace", &req.extract.workspace, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(params.GetUint("k", &req.extract.k));
      SCHEMEX_RETURN_IF_ERROR(params.GetDouble("epsilon", &req.extract.epsilon));
      if (req.extract.epsilon < 1.0) {
        return util::Status::InvalidArgument("epsilon must be >= 1.0");
      }
      SCHEMEX_RETURN_IF_ERROR(
          params.GetUint("max_types", &req.extract.max_types));
      SCHEMEX_RETURN_IF_ERROR(
          params.GetBool("decompose_roles", &req.extract.decompose_roles));
      SCHEMEX_RETURN_IF_ERROR(params.GetString("stage1", &req.extract.stage1));
      if (req.extract.stage1 != "refinement" && req.extract.stage1 != "gfp") {
        return util::Status::InvalidArgument(
            "stage1 must be \"refinement\" or \"gfp\"");
      }
      SCHEMEX_RETURN_IF_ERROR(
          params.GetString("save_dir", &req.extract.save_dir));
      break;
    case Verb::kType:
      SCHEMEX_RETURN_IF_ERROR(
          params.GetString("workspace", &req.type.workspace, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(params.GetString("program", &req.type.program));
      SCHEMEX_RETURN_IF_ERROR(params.GetBool("commit", &req.type.commit));
      break;
    case Verb::kQuery:
      SCHEMEX_RETURN_IF_ERROR(params.GetString(
          "workspace", &req.query.workspace, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(
          params.GetString("query", &req.query.query, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(params.GetBool("use_guide", &req.query.use_guide));
      SCHEMEX_RETURN_IF_ERROR(params.GetUint("limit", &req.query.limit));
      break;
    case Verb::kApplyDelta:
      SCHEMEX_RETURN_IF_ERROR(params.GetString(
          "workspace", &req.apply_delta.workspace, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(
          ParseDeltaOps(params_it == obj.end() ? kEmptyObject
                                               : params_it->second.AsObject(),
                        &req.apply_delta.ops));
      SCHEMEX_RETURN_IF_ERROR(
          params.GetBool("compact", &req.apply_delta.compact));
      break;
    case Verb::kReExtract:
      SCHEMEX_RETURN_IF_ERROR(params.GetString(
          "workspace", &req.re_extract.workspace, /*required=*/true));
      SCHEMEX_RETURN_IF_ERROR(params.GetUint("k", &req.re_extract.k));
      SCHEMEX_RETURN_IF_ERROR(
          params.GetString("save_dir", &req.re_extract.save_dir));
      SCHEMEX_RETURN_IF_ERROR(params.GetDouble(
          "max_dirty_fraction", &req.re_extract.max_dirty_fraction));
      if (req.re_extract.max_dirty_fraction < 0 ||
          req.re_extract.max_dirty_fraction > 1) {
        return util::Status::InvalidArgument(
            "max_dirty_fraction must be in [0, 1]");
      }
      break;
    case Verb::kStats:
    case Verb::kListWorkspaces:
      break;
  }
  return req;
}

util::StatusOr<Request> ParseRequestJson(std::string_view line) {
  SCHEMEX_ASSIGN_OR_RETURN(json::Value v, json::Parse(line));
  return ParseRequest(v);
}

std::string SerializeResponse(const Response& r) {
  std::map<std::string, json::Value> top;
  top["id"] = JsonInt(r.id);
  top["ok"] = json::Value::Bool(r.status.ok());
  if (r.status.ok()) {
    top["result"] = r.result;
  } else {
    std::map<std::string, json::Value> err;
    err["code"] =
        json::Value::String(std::string(StatusCodeToString(r.status.code())));
    err["message"] = json::Value::String(r.status.message());
    top["error"] = json::Value::Object(std::move(err));
  }
  return json::Serialize(json::Value::Object(std::move(top)));
}

json::Value JsonInt(int64_t n) {
  return json::Value::Number(static_cast<double>(n), std::to_string(n));
}

json::Value JsonUint(uint64_t n) {
  return json::Value::Number(static_cast<double>(n), std::to_string(n));
}

}  // namespace schemex::service
