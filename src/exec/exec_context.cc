#include "exec/exec_context.h"

namespace pushsip {

void ExecContext::SetError(const Status& status) {
  if (status.ok()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.ok()) first_error_ = status;
  }
  Cancel();
}

Status ExecContext::GetError() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void ExecContext::RegisterOperator(Operator* op) {
  std::lock_guard<std::mutex> lock(mu_);
  operators_.push_back(op);
}

void ExecContext::AddInputFinishedHook(InputFinishedHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hooks_.push_back(std::move(hook));
}

void ExecContext::NotifyInputFinished(Operator* op, int port) {
  std::vector<InputFinishedHook> hooks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hooks = hooks_;
  }
  for (auto& hook : hooks) hook(op, port);
}

}  // namespace pushsip
