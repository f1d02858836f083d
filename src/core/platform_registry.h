/**
 * @file
 * PlatformSpec -- a declarative description of one platform
 * instance -- and the PlatformRegistry that turns specs into live
 * Platform objects.
 *
 * A spec is what sweep grids, figures, and the CLI traffic in: a
 * type-erased config handle plus kind tag, display name,
 * network-variant choice, and batch. The registry maps each kind to
 * a builder and a CLI parser, so `--platform eyeriss`, `--platform
 * gpu:titan-xp-int8` and a heterogeneous sweep grid all construct
 * platforms through the same door. Core knows no backend by name:
 * every in-tree kind registers itself through the same add() an
 * out-of-tree backend would use, so adding a machine means writing
 * one config struct, one Platform subclass, and one registration
 * unit -- no core-header edits.
 */

#ifndef BITFUSION_CORE_PLATFORM_REGISTRY_H
#define BITFUSION_CORE_PLATFORM_REGISTRY_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/core/platform.h"

namespace bitfusion {

/**
 * Type-erased, immutable platform configuration with value
 * semantics: copies clone, and equality compares the held structs
 * through their own operator==. Every other machine fact (name,
 * batch, compile key, validation) has one owner elsewhere: the spec
 * or the built Platform.
 */
class PlatformConfig
{
  public:
    PlatformConfig() = default;
    PlatformConfig(PlatformConfig &&) = default;
    PlatformConfig &operator=(PlatformConfig &&) = default;

    PlatformConfig(const PlatformConfig &other)
        : impl_(other.impl_ ? other.impl_->clone() : nullptr)
    {
    }

    PlatformConfig &
    operator=(const PlatformConfig &other)
    {
        if (this != &other)
            impl_ = other.impl_ ? other.impl_->clone() : nullptr;
        return *this;
    }

    /** Wrap a config struct; T must be copyable and equality-comparable. */
    template <typename T>
    static PlatformConfig
    wrap(T value)
    {
        PlatformConfig config;
        config.impl_ = std::make_unique<Model<T>>(std::move(value));
        return config;
    }

    /** True when no config has been wrapped. */
    bool empty() const { return impl_ == nullptr; }

    /** The held struct, or nullptr on a type mismatch. */
    template <typename T>
    const T *
    get_if() const
    {
        if (impl_ == nullptr || impl_->type() != typeid(T))
            return nullptr;
        return static_cast<const T *>(impl_->raw());
    }

    /** The held struct; fatal on a type mismatch. */
    template <typename T>
    const T &
    as() const
    {
        const T *value = get_if<T>();
        if (value == nullptr) {
            BF_FATAL("platform config holds ",
                     impl_ ? impl_->type().name() : "nothing",
                     ", not ", typeid(T).name());
        }
        return *value;
    }

    /** Same held type and equal fields (two empties are equal). */
    bool
    operator==(const PlatformConfig &other) const
    {
        if (impl_ == nullptr || other.impl_ == nullptr)
            return impl_ == other.impl_;
        return impl_->type() == other.impl_->type() &&
               impl_->equals(*other.impl_);
    }

    bool
    operator!=(const PlatformConfig &other) const
    {
        return !(*this == other);
    }

  private:
    struct Concept
    {
        virtual ~Concept() = default;
        virtual std::unique_ptr<const Concept> clone() const = 0;
        virtual bool equals(const Concept &other) const = 0;
        virtual const std::type_info &type() const = 0;
        virtual const void *raw() const = 0;
    };

    template <typename T> struct Model : Concept
    {
        explicit Model(T value) : value(std::move(value)) {}

        std::unique_ptr<const Concept>
        clone() const override
        {
            return std::make_unique<Model<T>>(value);
        }

        bool
        equals(const Concept &other) const override
        {
            // The caller checked type() equality already.
            return value == *static_cast<const T *>(other.raw());
        }

        const std::type_info &type() const override
        {
            return typeid(T);
        }

        const void *raw() const override { return &value; }

        T value;
    };

    std::unique_ptr<const Concept> impl_;
};

/**
 * Declarative description of one platform instance: which backend
 * kind, with which configuration, under which display name, running
 * which network variant, at which batch size.
 */
struct PlatformSpec
{
    /** Display name; must be unique within a sweep grid. */
    std::string name;
    /** Registry kind id ("bitfusion", "eyeriss", "gpu", ...). */
    std::string kind;
    /** Type-erased backend configuration. */
    PlatformConfig config;
    /** Run the quantized model variant (else the regular one). */
    bool runsQuantized = true;
    /**
     * Batch the built platform runs at. Factories set the config's
     * default; builders apply it unconditionally, and
     * PlatformRegistry::build rejects 0.
     */
    unsigned batch = 0;
};

/**
 * Builders and CLI parsers for every platform kind. The in-tree
 * backends are pre-registered in builtin() through the same add()
 * door an out-of-tree backend uses at runtime.
 */
class PlatformRegistry
{
  public:
    struct Entry
    {
        /** Kind id (the token before ':' in --platform). */
        std::string kind;
        /** Accepted variants after ':' ("(no variants)" if none). */
        std::string variants;
        /** One-line description of the backend. */
        std::string help;
        /**
         * Parse the (possibly empty) variant into a spec; nullopt
         * when the kind has no such variant (the registry owns the
         * diagnostic).
         */
        std::function<std::optional<PlatformSpec>(const std::string &variant)>
            parse;
        /** Build a live platform from a spec of this kind. */
        std::function<std::unique_ptr<Platform>(const PlatformSpec &)>
            build;
    };

    /** The registry holding the built-in platform kinds. */
    static PlatformRegistry &builtin();

    /** Register a kind; fatal on a duplicate id. */
    void add(Entry entry);

    /** Look up a kind; nullptr when unknown. */
    const Entry *find(const std::string &kind) const;

    /**
     * Build a platform from a spec (dispatches on spec.kind). Fatal
     * on an unknown kind or a zero batch.
     */
    std::unique_ptr<Platform> build(const PlatformSpec &spec) const;

    /**
     * Parse a CLI token of the form "kind" or "kind:variant" (e.g.
     * "eyeriss", "gpu:titan-xp-int8", "bitfusion:16nm") into @p out.
     * Returns the diagnostic for an unknown kind or variant, or ""
     * on success; the CLIs exit 2 with it before doing any work.
     */
    std::string parse(const std::string &token, PlatformSpec &out) const;

    /** parse(token, out) for a token the program wrote; fatal on error. */
    PlatformSpec parse(const std::string &token) const;

    /**
     * Parse a comma-separated fleet of platform tokens (e.g.
     * "bitfusion,bitfusion,eyeriss,gpu:titan-xp-int8") into one spec
     * per replica in @p out. Returns the diagnostic for an empty
     * list, an empty element, or any invalid token, or "" on success.
     */
    std::string parseFleet(const std::string &csv,
                           std::vector<PlatformSpec> &out) const;

    /** parseFleet(csv, out); fatal on error. */
    std::vector<PlatformSpec> parseFleet(const std::string &csv) const;

    const std::vector<Entry> &entries() const { return entries_; }

    /** Print "platforms (@p usage):" and one line per kind: kind,
     *  variants, help (the CLIs' --list-platforms). The variants
     *  column is as wide as its widest entry. */
    void print(const char *usage) const;

  private:
    std::vector<Entry> entries_;
};

/**
 * The spec of a kind whose config carries its batch: @p cfg wrapped
 * under @p kind and display @p name, at the config's batch, running
 * the quantized network variant when @p runsQuantized.
 */
template <typename Config>
PlatformSpec
specOf(std::string kind, std::string name, bool runsQuantized,
       const Config &cfg)
{
    PlatformSpec spec;
    spec.name = std::move(name);
    spec.kind = std::move(kind);
    spec.config = PlatformConfig::wrap(cfg);
    spec.runsQuantized = runsQuantized;
    spec.batch = cfg.batch;
    return spec;
}

/**
 * The inverse of specOf, and the build step of every such kind: a
 * copy of @p spec's Config with the spec's batch applied, handed to
 * Model's constructor. Use buildModel<Model, Config> as an Entry's
 * build.
 */
template <typename Model, typename Config>
std::unique_ptr<Platform>
buildModel(const PlatformSpec &spec)
{
    Config cfg = spec.config.as<Config>();
    cfg.batch = spec.batch;
    return std::make_unique<Model>(std::move(cfg));
}

/**
 * Canonical variant spelling: lowercase with '-'/'_' stripped, so
 * "TitanXp-INT8" matches "titanxpint8". Registration units use this
 * to make their variant tokens spelling-insensitive.
 */
std::string canonicalVariant(const std::string &s);

} // namespace bitfusion

#endif // BITFUSION_CORE_PLATFORM_REGISTRY_H
