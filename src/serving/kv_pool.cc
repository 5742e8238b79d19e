#include "serving/kv_pool.h"

#include "support/error.h"
#include "support/math_util.h"

namespace tilus {
namespace serving {

KvPagePool::KvPagePool(int64_t capacity_tokens, int64_t page_tokens)
    : page_tokens_(page_tokens),
      total_pages_(capacity_tokens / page_tokens),
      free_pages_(total_pages_)
{
    TILUS_FATAL_IF(page_tokens < 1,
                   "KvPagePool needs a positive page size, got "
                       << page_tokens);
    TILUS_FATAL_IF(total_pages_ < 1,
                   "KvPagePool capacity " << capacity_tokens
                                          << " tokens holds no page of "
                                          << page_tokens << " tokens");
}

int64_t
KvPagePool::pagesForTokens(int64_t tokens) const
{
    return tokens <= 0 ? 0 : ceilDiv(tokens, page_tokens_);
}

int64_t
KvPagePool::pagesHeld(int64_t owner) const
{
    return owner >= 0 && owner < static_cast<int64_t>(held_.size())
               ? held_[owner]
               : 0;
}

bool
KvPagePool::grow(int64_t owner, int64_t kv_tokens)
{
    TILUS_CHECK(owner >= 0);
    const int64_t more = pagesForTokens(kv_tokens) - pagesHeld(owner);
    if (more <= 0)
        return true;
    if (more > free_pages_)
        return false;
    if (owner >= static_cast<int64_t>(held_.size()))
        held_.resize(owner + 1, 0);
    held_[owner] += more;
    free_pages_ -= more;
    return true;
}

void
KvPagePool::release(int64_t owner)
{
    if (pagesHeld(owner) == 0)
        return;
    free_pages_ += held_[owner];
    held_[owner] = 0;
}

} // namespace serving
} // namespace tilus
