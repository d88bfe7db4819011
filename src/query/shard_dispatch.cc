#include "query/shard_dispatch.h"

namespace exsample {
namespace query {

ShardDispatcher::ShardDispatcher(const video::ShardedRepository* repo,
                                 std::vector<ShardContext> contexts)
    : repo_(repo), contexts_(std::move(contexts)) {
  common::Check(repo_ != nullptr, "ShardDispatcher needs a sharded repository");
  common::Check(contexts_.size() == repo_->NumShards(),
                "ShardDispatcher needs one context per shard");
  has_stores_ = true;
  for (uint32_t s = 0; s < contexts_.size(); ++s) {
    if (repo_->Shard(s).TotalFrames() == 0) continue;  // Empty shards idle.
    common::Check(contexts_[s].detector != nullptr,
                  "non-empty shard needs a detector context");
    if (contexts_[s].store == nullptr) has_stores_ = false;
  }
}

uint32_t ShardDispatcher::ShardOfFrame(video::FrameId frame) const {
  auto shard = repo_->ShardOfFrame(frame);
  common::CheckOk(shard.status(), "picked frame outside the sharded repository");
  return shard.value();
}

double ShardDispatcher::SecondsPerFrame(uint32_t shard) const {
  common::Check(shard < contexts_.size() && contexts_[shard].detector != nullptr,
                "no detector context for shard");
  return contexts_[shard].detector->SecondsPerFrame();
}

video::ReadPlan ShardDispatcher::PlanDecode(video::FrameId frame, uint32_t shard) {
  common::Check(shard < contexts_.size(), "unknown shard id");
  video::SimulatedVideoStore* store = contexts_[shard].store;
  common::Check(store != nullptr, "shard has no decode store");
  auto plan = store->PlanRead(frame);
  common::CheckOk(plan.status(), "sharded decode failed");
  return plan.value();
}

}  // namespace query
}  // namespace exsample
