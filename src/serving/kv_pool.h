/**
 * @file
 * The serving simulator's one KV ledger. A KvPagePool divides the
 * engine's KV reservation into fixed-size pages (vLLM-style blocks) and
 * counts how many each request holds. Both KV modes run on it:
 *
 *  - paged mode: pages of SchedulerLimits::kv_page_tokens, handed out
 *    on demand as a request extends its context, so a request holds
 *    exactly the pages covering its materialized KV entries. Admission
 *    may over-subscribe the pool; the out-of-pages condition this
 *    creates is resolved by scheduler-driven preemption (see
 *    simulator.cc and the policy contract in README.md), not by OOM.
 *  - reservation mode: 1-token pages, grown to a request's whole
 *    `prompt + output` demand when it is admitted, so it never needs
 *    a page it does not already hold.
 *
 * Only counts are kept: no policy, metric or report reads which page a
 * request holds.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace tilus {
namespace serving {

/** Default page size in tokens (vLLM's classic block size). */
constexpr int64_t kDefaultKvPageTokens = 16;

/** A fixed pool of KV-cache pages with a page count per owner. */
class KvPagePool
{
  public:
    /**
     * Carve @p capacity_tokens into pages of @p page_tokens each
     * (partial trailing pages are dropped — the pool never lies about
     * whole-page capacity).
     */
    KvPagePool(int64_t capacity_tokens, int64_t page_tokens);

    int64_t pageTokens() const { return page_tokens_; }
    int64_t totalPages() const { return total_pages_; }
    int64_t usedPages() const { return total_pages_ - free_pages_; }
    int64_t freePages() const { return free_pages_; }

    /** Pages needed to cover @p tokens KV entries. */
    int64_t pagesForTokens(int64_t tokens) const;

    /** Pages currently held by @p owner (0 when unknown). */
    int64_t pagesHeld(int64_t owner) const;

    /**
     * Ensure @p owner holds enough pages to cover @p kv_tokens entries.
     * Returns false — with the pool untouched — when the free pages
     * cannot cover the growth; the caller (a policy planning a step, or
     * the simulator enforcing one) must preempt a victim and retry.
     * Never shrinks.
     */
    bool grow(int64_t owner, int64_t kv_tokens);

    /** Return every page held by @p owner (no-op for unknown owners).
        Called on finish, preemption and step-fault eviction. */
    void release(int64_t owner);

  private:
    int64_t page_tokens_;
    int64_t total_pages_;
    int64_t free_pages_;
    std::vector<int64_t> held_; ///< pages per owner id
};

} // namespace serving
} // namespace tilus
